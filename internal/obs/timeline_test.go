package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestTimelineGolden pins the rendering and which spans count as events:
// send starts, delivering wait ends, drops (on the sender's row) and marks;
// compute spans, timed-out waits and delivered transfers do not.
func TestTimelineGolden(t *testing.T) {
	rec := &Recorder{}
	rec.Span(Span{Track: "a", Cat: CatSend, Start: 0, End: 0.1})
	rec.Span(Span{Track: "a", Cat: CatCompute, Start: 0.1, End: 3})
	rec.Span(Span{Track: "net", Cat: CatNet, Name: "a>b", Start: 0.5, End: 0.7, From: "a", Note: "loss"})
	rec.Span(Span{Track: "net", Cat: CatNet, Name: "a>b", Start: 0.1, End: 2.8, From: "a"})
	rec.Span(Span{Track: "b", Cat: CatWait, Start: 0.2, End: 1, Cause: 7, From: "a"})
	rec.Span(Span{Track: "b", Cat: CatMark, Name: "crash", Start: 2, End: 2})
	rec.Span(Span{Track: "b", Cat: CatWait, Start: 2, End: 2.5})
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, rec, 10); err != nil {
		t.Fatal(err)
	}
	want := "a |. .       |\n" +
		"b |    .    .|\n" +
		"   0        2s\n"
	if buf.String() != want {
		t.Fatalf("timeline mismatch:\ngot:\n%swant:\n%s", buf.String(), want)
	}
}

func TestTimelineClampsAxisPad(t *testing.T) {
	// A time whose %.4g rendering is wider than the timeline itself used to
	// drive strings.Repeat with a negative count and panic.
	rec := &Recorder{}
	rec.Span(Span{Track: "p", Cat: CatSend, Start: 1.234e+100, End: 1.234e+100})
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, rec, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1.234e+100") {
		t.Fatalf("axis label missing:\n%s", buf.String())
	}
}

func TestTimelineEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, &Recorder{}, 20); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no events") {
		t.Fatal("empty recorder should say so")
	}
}
