package main

import (
	"sync"
	"time"
)

// Sample is the timing of one open-loop operation.
type Sample struct {
	Due, Sent, Done time.Time
	// Late is how late the generator itself sent the operation (see
	// lateness); it is the generator's error, not the system's.
	Late time.Duration
	Err  error
}

// Latency is measured from the due time, so a stall is charged to every
// operation that queued behind it; the generator's own lateness is not
// the system's and is left out (it is reported as gen.late_p99_ms).
func (s Sample) Latency() time.Duration { return s.Done.Sub(s.Due) - s.Late }

// Service is the time the operation itself took.
func (s Sample) Service() time.Duration { return s.Done.Sub(s.Sent) }

// lateness is how long after it could have been sent an operation was
// sent: from its due time, or from the end of the lane's previous
// operation when that ran past the due time, to the send. Waiting behind a
// slow previous operation is the system's doing and counts in Latency,
// not here.
func lateness(due, prevDone, sent time.Time) time.Duration {
	ready := due
	if prevDone.After(ready) {
		ready = prevDone
	}
	return max(sent.Sub(ready), 0)
}

// Lane is one open-loop operation stream with at most one operation in
// flight: operation i is due at start + i*Interval.
type Lane struct {
	Interval time.Duration
	Op       func(i int) error
}

// LaneResult is what a lane did.
type LaneResult struct {
	Samples []Sample
	// Missed counts operations still unsent when the lane gave up on a
	// backlog that ran past the grace period.
	Missed int
}

// run issues the lane's operations for every due time in [start, end).
// A lane that falls behind keeps sending back to back; past end+grace it
// stops and counts the rest as missed, so an overloaded system fails the
// run instead of stretching it.
func (l Lane) run(start, end time.Time, grace time.Duration) LaneResult {
	var res LaneResult
	var prevDone time.Time
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * l.Interval)
		if !due.Before(end) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		} else if time.Since(end) > grace {
			res.Missed = int((end.Sub(start)+l.Interval-1)/l.Interval) - i
			break
		}
		sent := time.Now()
		err := l.Op(i)
		done := time.Now()
		res.Samples = append(res.Samples, Sample{
			Due: due, Sent: sent, Done: done, Late: lateness(due, prevDone, sent), Err: err,
		})
		prevDone = done
	}
	return res
}

// runLanes runs the lanes concurrently on one schedule and waits for all.
func runLanes(start, end time.Time, grace time.Duration, lanes ...Lane) []LaneResult {
	out := make([]LaneResult, len(lanes))
	var wg sync.WaitGroup
	for i, l := range lanes {
		wg.Add(1)
		go func(i int, l Lane) {
			defer wg.Done()
			out[i] = l.run(start, end, grace)
		}(i, l)
	}
	wg.Wait()
	return out
}
