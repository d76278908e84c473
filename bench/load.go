package main

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// outcome classifies one operation. The bench never retries: a refusal is
// final for that operation.
type outcome int

const (
	opOK      outcome = iota
	opRefused         // 503: the system declined the operation
	opFailed          // anything else that is not the expected answer
)

// sample is one timed operation. at is the offset from the start of the
// measure window — negative during warm-up — of the moment the operation was
// sent (closed loop) or was due (open loop); lat is measured from that same
// moment. late is the generator's own error on an open-loop send: how long
// after it was due, and the connection free, it actually went out.
type sample struct {
	at, lat, late time.Duration
	out           outcome
	// units is the work the operation got done: reports acked (32 for a
	// whole batch), lookups answered, RSS samples consumed by a CS round.
	units int
}

// op is one prepared operation: performing it sends the request that was
// built for it and reports the outcome and the units of work it got done
// (see sample.units).
type op func() (outcome, int)

// answered is the result of an operation whose answer is all or nothing: its
// units of work if it was done, none if it was refused or failed.
func answered(out outcome, units int) (outcome, int) {
	if out != opOK {
		return out, 0
	}
	return out, units
}

// lane is one of the two connections a workload drives. A closed-loop lane
// (rate 0) sends its next operation when the previous one completes; an
// open-loop lane sends on a fixed schedule of rate operations per second and
// times each from when it was due, so a stall is charged to every operation
// it delays and not only to the one that hit it.
type lane struct {
	kind string // "upload", "batch", "lookup" or "drive"
	rate float64
	// next builds the lane's next operation — draws its inputs, encodes its
	// request — before the clock is read, so a latency is the system's time
	// and none of the generator's.
	next func() op

	samples []sample
}

// record performs and keeps one timed operation. sent is the moment its
// latency is measured from.
func (l *lane) record(t0, sent time.Time, late time.Duration, o op) {
	s := sample{at: sent.Sub(t0), late: late}
	s.out, s.units = o()
	s.lat = time.Since(sent)
	l.samples = append(l.samples, s)
	progress()
}

// lastProgress is touched by every completed operation and phase change; the
// watchdog in main fails the run when it stops moving.
var lastProgress atomic.Int64

func progress() { lastProgress.Store(time.Now().UnixNano()) }

// runLanes drives every lane concurrently through warm-up and the measure
// window, and returns when all have stopped. Nothing is in flight afterwards,
// so the acked counts are final.
func runLanes(lanes []*lane, warm, measure time.Duration) {
	start := time.Now()
	t0 := start.Add(warm)
	end := t0.Add(measure)
	var wg sync.WaitGroup
	for _, l := range lanes {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			if l.rate > 0 {
				l.runOpen(start, t0, end)
			} else {
				l.runClosed(t0, end)
			}
		}(l)
	}
	wg.Wait()
}

func (l *lane) runClosed(t0, end time.Time) {
	for {
		o := l.next()
		sent := time.Now()
		if !sent.Before(end) {
			return
		}
		l.record(t0, sent, 0, o)
	}
}

func (l *lane) runOpen(start, t0, end time.Time) {
	period := time.Duration(float64(time.Second) / l.rate)
	free := start
	o := l.next()
	for due := start; due.Before(end); due = due.Add(period) {
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		// The lane has one connection, so a send can go out only once it is
		// due and the previous answer is in; lateness beyond that — building
		// the next request included — is the generator's own.
		ready := due
		if free.After(ready) {
			ready = free
		}
		l.record(t0, due, time.Since(ready), o)
		free = time.Now()
		o = l.next()
	}
}

// laneStats is what one lane measured inside the window.
type laneStats struct {
	Kind      string `json:"kind"`
	Loop      string `json:"loop"`
	Attempted int    `json:"attempted"`
	OK        int    `json:"ok"`
	Refused   int    `json:"refused"`
	Failed    int    `json:"failed"`
	// Units is the work the answered operations got done (see sample.units),
	// UnitsPerS the same per second from the first one's start to the last
	// one's end, and Latency their median and highest supported percentile.
	Units     int     `json:"units"`
	UnitsPerS float64 `json:"units_per_s"`
	Latency   timing  `json:"latency_ms"`
	// LateP99 is the generator's own error bar on an open-loop lane, at the
	// 99th percentile (see sample.late).
	LateP99 float64 `json:"generator_late_p99_ms"`
}

func (l *lane) stats() laneStats {
	st := laneStats{Kind: l.kind, Loop: "closed"}
	if l.rate > 0 {
		st.Loop = fmt.Sprintf("open %g/s", l.rate)
	}
	var lats, lates []float64
	var first, last time.Duration
	for _, s := range l.samples {
		if s.at < 0 {
			continue
		}
		st.Attempted++
		lates = append(lates, ms(s.late))
		switch s.out {
		case opOK:
			// Only answered operations have a latency; the others are
			// counted against the number attempted instead.
			if st.OK == 0 {
				first = s.at
			}
			last = max(last, s.at+s.lat)
			st.OK++
			st.Units += s.units
			lats = append(lats, ms(s.lat))
		case opRefused:
			st.Refused++
		default:
			st.Failed++
		}
	}
	st.UnitsPerS = float64(st.Units) / (last - first).Seconds()
	st.Latency = summarize(lats, "ms")
	st.LateP99 = percentile(sortedCopy(lates), 99)
	return st
}

// acked counts every unit of work the lane ever got done, warm-up included
// and whatever the operation's outcome: the durability check compares it
// with what the store holds.
func (l *lane) acked() int {
	n := 0
	for _, s := range l.samples {
		n += s.units
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// newConn returns a client that owns exactly one connection, so a workload's
// "two connections" are two and stay two.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: stallLimit,
	}
}

// roundTrip sends req and drains the answer. want is the status that means
// the operation was done.
func roundTrip(c *http.Client, req *http.Request, want int) (outcome, []byte) {
	resp, err := c.Do(req)
	if err != nil {
		return opFailed, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return opFailed, nil
	case resp.StatusCode == want:
		return opOK, body
	case resp.StatusCode == http.StatusServiceUnavailable:
		return opRefused, body
	}
	return opFailed, body
}
