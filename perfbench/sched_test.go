package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on or told to.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time        { return c.t }
func (c *fakeClock) Sleep(d time.Duration) { c.t = c.t.Add(d) }

func TestOpenLoopKeepsDueTimes(t *testing.T) {
	c := &fakeClock{t: time.Unix(100, 0)}
	start := c.t
	var dues []time.Time
	late := openLoop(c, start, start.Add(time.Second), 10, func(i int, due time.Time) {
		dues = append(dues, due)
	})
	if len(dues) != 10 || len(late) != 10 {
		t.Fatalf("fired %d batches (%d lateness samples), want 10", len(dues), len(late))
	}
	for i, d := range dues {
		if want := start.Add(time.Duration(i) * 100 * time.Millisecond); !d.Equal(want) {
			t.Errorf("batch %d due %v, want %v", i, d.Sub(start), want.Sub(start))
		}
		if late[i] != 0 {
			t.Errorf("batch %d late %v on an idle clock", i, late[i])
		}
	}
}

// A stall inside fire must not push later due times back: the batches
// that fell due during it fire at once, each stamped with its own due
// time and with its lateness recorded.
func TestOpenLoopCatchesUpAfterStall(t *testing.T) {
	c := &fakeClock{t: time.Unix(100, 0)}
	start := c.t
	var dues []time.Time
	late := openLoop(c, start, start.Add(time.Second), 10, func(i int, due time.Time) {
		dues = append(dues, due)
		if i == 2 {
			c.t = c.t.Add(350 * time.Millisecond)
		}
	})
	if len(dues) != 10 {
		t.Fatalf("fired %d batches, want 10", len(dues))
	}
	for i, d := range dues {
		if want := start.Add(time.Duration(i) * 100 * time.Millisecond); !d.Equal(want) {
			t.Errorf("batch %d due %v, want %v", i, d.Sub(start), want.Sub(start))
		}
	}
	// Batch 2 ended 350ms late; 3, 4 and 5 were due inside the stall.
	wantLate := []time.Duration{0, 0, 350, 250, 150, 50, 0, 0, 0, 0}
	for i, w := range wantLate {
		if late[i] != w*time.Millisecond {
			t.Errorf("batch %d lateness %v, want %v", i, late[i], w*time.Millisecond)
		}
	}
}

// A paced client sends on its slots while answers are quick; a slow
// answer delays the next request, and the client then starts its slots
// afresh instead of sending the missed ones in a burst.
func TestPacedLoopWaitsForAnswersAndSlots(t *testing.T) {
	c := &fakeClock{t: time.Unix(100, 0)}
	start := c.t
	stop := make(chan struct{})
	var sent []time.Duration
	pacedLoop(c, stop, 10, func() {
		sent = append(sent, c.t.Sub(start))
		switch len(sent) {
		case 3:
			c.t = c.t.Add(350 * time.Millisecond) // a slow answer
		case 6:
			close(stop)
		default:
			c.t = c.t.Add(10 * time.Millisecond)
		}
	})
	want := []time.Duration{0, 100, 200, 550, 650, 750}
	if len(sent) != len(want) {
		t.Fatalf("sent %d requests, want %d", len(sent), len(want))
	}
	for i, w := range want {
		if sent[i] != w*time.Millisecond {
			t.Errorf("request %d sent at %v, want %v", i, sent[i], w*time.Millisecond)
		}
	}
}
