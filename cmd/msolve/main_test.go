package main

import (
	"strings"
	"testing"
)

// TestObsSpecValidate: contradictory observability flag combinations are
// rejected up front with an error naming the flag; valid ones pass.
func TestObsSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		spec    obsSpec
		wantErr string
	}{
		{"negative window", obsSpec{window: -1}, "-window"},
		{"stream without trace-json", obsSpec{streamTrace: true}, "-stream-trace needs -trace-json"},
		{"stream with critical path", obsSpec{streamTrace: true, traceJSON: "t.json", critPath: true}, "-critical-path"},
		{"stream with timeline", obsSpec{streamTrace: true, traceJSON: "t.json", timeline: true}, "-trace timeline"},
		{"off", obsSpec{}, ""},
		{"batch export with timeline", obsSpec{traceJSON: "t.json", critPath: true, window: 0.5, timeline: true}, ""},
		{"streamed export with windows", obsSpec{streamTrace: true, traceJSON: "t.json", window: 0.5}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid spec rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.wantErr)
			}
		})
	}
}
