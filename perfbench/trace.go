package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// batch or query share Req; Parent is the span whose call caused this
// one (0 for a root).
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent"`
	Name   string    `json:"name"` // "<layer>.<operation>"
	Req    string    `json:"req,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// add records a finished span and returns its ID; id 0 allocates one.
func (t *tracer) add(id, parent int64, name, req string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end})
	t.mu.Unlock()
	return id
}

// timed runs fn inside a span.
func (t *tracer) timed(parent int64, name, req string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(0, parent, name, req, start, end)
	return end.Sub(start)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type spanKey struct{}

// withSpan carries the caller's span through a request context, so a
// call the program makes on the benchmark's transport while serving it
// (a forward, a replicate leg, a scatter leg) becomes its child.
func withSpan(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

// selfTimes sums, per layer, each span's duration minus the part of
// its interval covered by its children. Overlapping children count
// once, and a child running past its parent's end is clipped to it.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int64][]span, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.layer()] += s.End.Sub(s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to [start, end].
func covered(start, end time.Time, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			if i > 0 {
				total += curB.Sub(curA)
			}
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes prints each layer's self time, largest first.
func printSelfTimes(workload string, spans []span) {
	self := selfTimes(spans)
	layers := make([]string, 0, len(self))
	var total time.Duration
	for l, d := range self {
		layers = append(layers, l)
		total += d
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Printf("self time by layer (%s, %d spans):\n", workload, len(spans))
	for _, l := range layers {
		fmt.Printf("  %-10s %10.1f ms  %5.1f%%\n", l, ms(self[l]), 100*ratio(float64(self[l]), float64(total)))
	}
}
