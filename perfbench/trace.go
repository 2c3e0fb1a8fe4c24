package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"tdmroute"
)

// tracer keeps the spans of a traced run in memory and writes them out as
// Chrome trace-event JSON (loadable in Perfetto) when the run ends. A
// disabled tracer records nothing; its spans still run the wrapped call.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

// span is one call into a layer. Op identifies the measured operation the
// span belongs to; Parent is the index of the span that caused it, or -1.
type span struct {
	Name       string
	Op         int
	Parent     int
	Start, End time.Duration
}

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, op, parent int) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.t0)
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if id < 0 {
		return 0
	}
	now := time.Since(t.t0)
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// call runs f inside a span and returns the span's duration (0 untraced).
func (t *tracer) call(name string, op, parent int, f func()) time.Duration {
	id := t.begin(name, op, parent)
	f()
	return t.end(id)
}

// stages adds the program's own stage walls as child spans of the run span
// id. They are laid end to end from the run's start in the order Run
// executes them; only their durations are measured.
func (t *tracer) stages(id, op int, times tdmroute.StageTimes) {
	if id < 0 {
		return
	}
	at := t.spans[id].Start
	for _, st := range []struct {
		name string
		d    time.Duration
	}{{"route", times.Route}, {"lr", times.LR}, {"legal_refine", times.LegalRefine}} {
		if st.d > 0 {
			t.spans = append(t.spans, span{Name: st.name, Op: op, Parent: id, Start: at, End: at + st.d})
			at += st.d
		}
	}
}

// write saves the spans as trace-event JSON under path.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"op": s.Op, "parent": s.Parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
