package main

import (
	"time"
)

// clock is the scheduler's view of time, so tests can run it on a
// fake clock.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop fires batches at a fixed rate from start until end: batch i
// is due at start + i/rate whatever happened to earlier batches, so a
// stall in the system under test cannot slow the offered load. When
// the generator wakes late it fires every batch already due at once,
// still stamped with its own due time, and records how late it fired
// each one. fire must not block.
func openLoop(c clock, start, end time.Time, rate float64, fire func(i int, due time.Time)) (lateness []time.Duration) {
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return lateness
		}
		if wait := due.Sub(c.Now()); wait > 0 {
			c.Sleep(wait)
		}
		fire(i, due)
		lateness = append(lateness, c.Now().Sub(due))
	}
}

// pacedLoop is one closed-loop client with a fixed pace: it calls do,
// which sends one request and waits for the answer, then waits for its
// next slot, one every 1/rate seconds, until stop closes. A slow
// answer delays the next request instead of queueing more behind it,
// and a client that fell behind starts its slots afresh rather than
// catching up in a burst.
func pacedLoop(c clock, stop <-chan struct{}, rate float64, do func()) {
	interval := time.Duration(float64(time.Second) / rate)
	next := c.Now()
	for {
		select {
		case <-stop:
			return
		default:
		}
		do()
		next = next.Add(interval)
		if wait := next.Sub(c.Now()); wait > 0 {
			c.Sleep(wait)
		} else {
			next = c.Now()
		}
	}
}
