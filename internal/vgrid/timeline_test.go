package vgrid

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
)

// observedRun runs a three-message src→dst exchange with an obs recorder
// attached and returns the recorder.
func observedRun(t *testing.T) *obs.Recorder {
	t.Helper()
	pl, a, b := twoHostPlatform(0.001, 1e7)
	e := NewEngine(pl)
	rec := &obs.Recorder{}
	e.Observe(rec)
	var src, dst *Proc
	src = e.Spawn(a, "src", func(p *Proc) error {
		for i := 0; i < 3; i++ {
			p.Compute(1e6)
			if err := p.Send(dst, 1, nil, 1000); err != nil {
				return err
			}
		}
		return nil
	})
	dst = e.Spawn(b, "dst", func(p *Proc) error {
		for i := 0; i < 3; i++ {
			p.Recv(src.ID, 1)
		}
		return nil
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestRecorderCapturesEvents: every send shows as a send span on the
// sender and every delivery as a wait span on the receiver that names the
// delivered message.
func TestRecorderCapturesEvents(t *testing.T) {
	rec := observedRun(t)
	sends, recvs := 0, 0
	for _, s := range rec.Spans() {
		if s.Start < 0 || s.End < s.Start {
			t.Fatalf("malformed span: %+v", s)
		}
		switch {
		case s.Cat == obs.CatSend && s.Track == "src":
			sends++
		case s.Cat == obs.CatWait && s.Track == "dst" && s.Cause != 0 && s.From == "src":
			recvs++
		}
	}
	if sends != 3 {
		t.Fatalf("sends = %d, want 3", sends)
	}
	if recvs != 3 {
		t.Fatalf("recvs = %d, want 3", recvs)
	}
}

// TestTimelineRendering: the timeline of a real run has a row per process
// and activity marks.
func TestTimelineRendering(t *testing.T) {
	rec := observedRun(t)
	var buf bytes.Buffer
	if err := obs.WriteTimeline(&buf, rec, 40); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "src") || !strings.Contains(out, "dst") {
		t.Fatalf("timeline missing processes:\n%s", out)
	}
	if strings.Contains(out, "net ") {
		t.Fatalf("timeline has a row for the network track:\n%s", out)
	}
	if !strings.ContainsAny(out, ".:+*#") {
		t.Fatalf("timeline has no activity marks:\n%s", out)
	}
}
