package main

import (
	"encoding/json"
	"time"
)

// span is one Chrome trace event in host time: microseconds since the
// repetition started.
type span struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Tracks of one repetition: its phases, and the device calls sampled
// during the replay phase.
const (
	tidPhases = 0
	tidCalls  = 1
)

// spanLog collects the spans of one repetition in memory.
type spanLog struct {
	origin time.Time
	events []span
	nextID int
}

func newSpanLog(origin time.Time) *spanLog { return &spanLog{origin: origin} }

func (l *spanLog) us(t time.Time) float64 { return float64(t.Sub(l.origin).Nanoseconds()) / 1e3 }

// add records a phase span from start to end and returns its id.
func (l *spanLog) add(name string, start, end time.Time) int {
	l.nextID++
	l.events = append(l.events, span{
		Name: name, Cat: "phase", Ph: "X", Ts: l.us(start), Dur: l.us(end) - l.us(start),
		Tid: tidPhases, Args: map[string]any{"span_id": l.nextID},
	})
	return l.nextID
}

// phase records a phase that started at start and ends now, and returns
// its duration in seconds.
func (l *spanLog) phase(name string, start time.Time) float64 {
	end := time.Now()
	l.add(name, start, end)
	return end.Sub(start).Seconds()
}

// calls records device-call spans under the phase span parent, with the
// layer counters that moved during each call.
func (l *spanLog) calls(cs []call, parent int) {
	for _, c := range cs {
		l.nextID++
		name := "read"
		if c.write {
			name = "write"
		}
		l.events = append(l.events, span{
			Name: name, Cat: "device", Ph: "X", Ts: l.us(c.start), Dur: float64(c.dur.Nanoseconds()) / 1e3,
			Tid: tidCalls, Args: map[string]any{
				"span_id": l.nextID, "parent_id": parent, "call": c.seq,
				"gc_runs": c.delta.gcRuns, "cmt_misses": c.delta.cmtMisses, "revived": c.delta.revived,
			},
		})
	}
}

// traceFile renders the spans of several workloads as one Chrome trace,
// one process per workload.
func traceFile(names []string, spans [][]span) ([]byte, error) {
	var events []span
	for pid, name := range names {
		events = append(events,
			span{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name}},
			span{Name: "thread_name", Ph: "M", Pid: pid, Tid: tidPhases, Args: map[string]any{"name": "phases"}},
			span{Name: "thread_name", Ph: "M", Pid: pid, Tid: tidCalls, Args: map[string]any{"name": "device calls"}})
		for _, s := range spans[pid] {
			s.Pid = pid
			events = append(events, s)
		}
	}
	return json.Marshal(struct {
		TraceEvents     []span `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}{events, "ms"})
}
