package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Tracing is done from outside the engine: the traced run wraps a span
// around each call into a layer's exported functions, replaying for a
// sampled operation the calls the engine makes with the same inputs.
// Spans are kept in memory and written out when the run ends. The span
// names are the contract a later in-engine tracer must reproduce.

// span is one timed interval. IDs are per client, starting at 1;
// Parent 0 marks an operation's root span.
type span struct {
	Name    string `json:"name"`
	Client  int    `json:"client"`
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer records the spans of one client goroutine; it is not shared,
// so recording takes no lock.
type tracer struct {
	client int
	t0     time.Time
	op     int
	spans  []span
	open   []int // indices of open spans, innermost last
}

func newTracer(client int, t0 time.Time) *tracer {
	return &tracer{client: client, t0: t0}
}

// A nil tracer records nothing, so a code path shared by traced and
// untraced runs calls these without asking.

// beginOp opens the root span of a new operation.
func (t *tracer) beginOp(name string) {
	if t == nil {
		return
	}
	t.op++
	t.begin(name)
}

// sampled reports whether the current operation is one of those that
// record (or replay) the calls beneath the top layer.
func (t *tracer) sampled() bool { return t != nil && t.op%replayEvery == 0 }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1] + 1
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{
		Name: name, Client: t.client, Op: t.op, ID: len(t.spans) + 1, Parent: parent,
		StartNS: int64(time.Since(t.t0)),
	})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].EndNS = int64(time.Since(t.t0))
}

// spanStats holds every span's duration and self time by name.
type spanStats struct {
	dur, self map[string][]time.Duration
}

// summarize computes each span's self time: its duration minus the part
// its child spans cover.
func summarize(tracers []*tracer) spanStats {
	st := spanStats{dur: map[string][]time.Duration{}, self: map[string][]time.Duration{}}
	for _, t := range tracers {
		child := make([]time.Duration, len(t.spans))
		for _, s := range t.spans {
			if s.Parent > 0 {
				child[s.Parent-1] += s.dur()
			}
		}
		for i, s := range t.spans {
			st.dur[s.Name] = append(st.dur[s.Name], s.dur())
			st.self[s.Name] = append(st.self[s.Name], s.dur()-child[i])
		}
	}
	return st
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// percentile is the nearest-rank percentile of ds, which it sorts.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	rank := int(p/100*float64(len(ds))+0.5) - 1
	return ds[min(max(rank, 0), len(ds)-1)]
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeTrace writes every span as one JSON object per line.
func writeTrace(path string, tracers []*tracer) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				return fmt.Errorf("writing %s: %w", path, err)
			}
		}
	}
	return w.Flush()
}
