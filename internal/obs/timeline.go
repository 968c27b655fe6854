package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteTimeline renders a coarse per-process activity timeline from the
// recorder: one row per track, with event density bucketed into width
// columns over the run. The events are send starts, the ends of waits that
// delivered a message, message drops (attributed to the sender) and
// platform marks (crash, restart, degrade, recover). A streaming recorder
// retains no spans and renders as empty.
func WriteTimeline(w io.Writer, r *Recorder, width int) error {
	if width < 10 {
		width = 10
	}
	tmax := 0.0
	procs := map[string][]float64{}
	for _, s := range r.Spans() {
		track, t := s.Track, s.Start
		switch s.Cat {
		case CatSend, CatMark:
		case CatWait:
			if s.Cause == 0 {
				continue
			}
			t = s.End
		case CatNet:
			if s.Note == "" {
				continue
			}
			track = s.From
		default:
			continue
		}
		procs[track] = append(procs[track], t)
		if t > tmax {
			tmax = t
		}
	}
	if len(procs) == 0 {
		_, err := fmt.Fprintln(w, "(no events recorded)")
		return err
	}
	if tmax == 0 {
		tmax = 1
	}
	names := make([]string, 0, len(procs))
	nameW := 0
	for n := range procs {
		names = append(names, n)
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	sort.Strings(names)
	marks := []byte(" .:+*#")
	for _, n := range names {
		buckets := make([]int, width)
		for _, t := range procs[n] {
			buckets[int(t/tmax*float64(width-1))]++
		}
		row := make([]byte, width)
		for i, cnt := range buckets {
			row[i] = marks[min(cnt, len(marks)-1)]
		}
		if _, err := fmt.Fprintf(w, "%-*s |%s|\n", nameW, n, string(row)); err != nil {
			return err
		}
	}
	// The axis label right-aligns tmax under the row end; when the formatted
	// value is wider than the timeline itself the padding clamps to zero
	// (strings.Repeat panics on a negative count).
	pad := max(width-len(fmt.Sprintf("%.4gs", tmax)), 0)
	_, err := fmt.Fprintf(w, "%-*s  0%s%.4gs\n", nameW, "", strings.Repeat(" ", pad), tmax)
	return err
}
