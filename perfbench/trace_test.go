package main

import (
	"testing"
	"time"
)

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.batch", Start: at(0), End: at(100)},
		// Overlapping children count once; a child running past its
		// parent's end counts only up to it.
		{ID: 2, Parent: 1, Name: "daemon.ingest", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "witch.client", Start: at(20), End: at(50)},
		{ID: 4, Parent: 1, Name: "daemon.ingest", Start: at(90), End: at(120)},
		// A grandchild is subtracted from its own parent only.
		{ID: 5, Parent: 2, Name: "cluster.forward", Start: at(12), End: at(18)},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"bench":   50 * time.Millisecond, // 100 − [10,50] − [90,100]
		"daemon":  (20 - 6 + 30) * time.Millisecond,
		"witch":   30 * time.Millisecond,
		"cluster": 6 * time.Millisecond,
	}
	for layer, w := range want {
		if self[layer] != w {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], w)
		}
	}
	if len(self) != len(want) {
		t.Errorf("layers %v, want %v", self, want)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.add(0, 0, "x.y", "", at(0), at(1)); id != 0 {
		t.Errorf("nil tracer returned id %d", id)
	}
	if tr.snapshot() != nil {
		t.Errorf("nil tracer holds spans")
	}
}
