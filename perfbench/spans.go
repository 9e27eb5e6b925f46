package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call the benchmark made into a layer of hsd. Spans of one
// request, scan job or learn cycle share Op; Parent is the span that
// made the call (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory while it is on and writes them out at
// the end of the run. A nil recorder records nothing, so untraced runs
// pay one nil check per call.
type recorder struct {
	on  atomic.Bool
	t0  time.Time
	ids atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// enable turns recording on or off; on a nil recorder it does nothing.
func (r *recorder) enable(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

type spanKey struct{}

type spanRef struct {
	id int64
	op string
}

// withOp starts a new operation: spans begun from the returned context
// carry op as their operation id.
func withOp(ctx context.Context, op string) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{op: op})
}

// parentOf returns the span and operation a context carries.
func parentOf(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// begin opens a span named name under the context's span. The returned
// function closes it.
func (r *recorder) begin(ctx context.Context, name string) (context.Context, func()) {
	if r == nil || !r.on.Load() {
		return ctx, func() {}
	}
	return r.beginUnder(ctx, parentOf(ctx), name)
}

// beginUnder opens a span under an explicit parent, for calls whose
// parent lives in another goroutine or process (an HTTP handler under
// its client's request).
func (r *recorder) beginUnder(ctx context.Context, parent spanRef, name string) (context.Context, func()) {
	if r == nil || !r.on.Load() {
		return ctx, func() {}
	}
	s := span{ID: r.ids.Add(1), Parent: parent.id, Name: name, Op: parent.op, Start: int64(time.Since(r.t0))}
	ctx = context.WithValue(ctx, spanKey{}, spanRef{id: s.ID, op: s.Op})
	return ctx, func() {
		s.End = int64(time.Since(r.t0))
		r.mu.Lock()
		r.spans = append(r.spans, s)
		r.mu.Unlock()
	}
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanStats aggregates the recorded spans by name.
type spanStats map[string][]time.Duration

func (r *recorder) stats() spanStats {
	out := spanStats{}
	for _, s := range r.snapshot() {
		out[s.Name] = append(out[s.Name], s.dur())
	}
	return out
}

// filtered aggregates the spans named name whose operation id starts
// with opPrefix.
func (r *recorder) filtered(name, opPrefix string) spanStats {
	out := spanStats{}
	for _, s := range r.snapshot() {
		if s.Name == name && strings.HasPrefix(s.Op, opPrefix) {
			out[name] = append(out[name], s.dur())
		}
	}
	return out
}

// meanMS is the mean duration of the named spans in milliseconds.
func (st spanStats) meanMS(name string) float64 {
	ds := st[name]
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / 1e6
}

// totalS is the summed duration of the named spans in seconds.
func (st spanStats) totalS(name string) float64 {
	var sum time.Duration
	for _, d := range st[name] {
		sum += d
	}
	return sum.Seconds()
}

// p50MS is the median duration of the named spans in milliseconds.
func (st spanStats) p50MS(name string) float64 {
	ds := st[name]
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e6
	}
	return summarize(xs).P50
}

// writeJSONL writes every recorded span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
