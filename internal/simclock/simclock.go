// Package simclock provides a deterministic virtual clock and a
// discrete-event scheduler used by every simulated subsystem in this
// repository.
//
// The real Grid'5000 testing framework runs over weeks of wall-clock time
// (OAR reservations, nightly Jenkins builds, exponential-backoff retries).
// To reproduce the paper's campaigns deterministically and in milliseconds,
// all subsystems take their notion of "now" from a Clock and schedule future
// work as events on its queue. A whole campaign is a pure function of
// (seed, configuration).
//
// Two execution styles coexist:
//
//   - plain events (At/After/Every) run on the driver goroutine, the one
//     calling Step/Run/RunUntil/RunFor;
//   - simulation goroutines (Go) are real goroutines — the CI server's
//     executor pool runs builds on them — that block in WaitUntil/Sleep.
//     The clock hands out a single run token, so exactly one of
//     {driver, simulation goroutines} executes at any instant and wake-ups
//     happen in event order: campaigns stay deterministic (see
//     concurrent.go).
//
// The steady state allocates nothing. The handle rule: a *Event returned by
// At or After is never reused, so Cancel on it stays a no-op however long
// after it fired. Events without a handle (Schedule, WaitUntil's wake-ups)
// come from a per-clock free list and return to it as they fire; a Ticker
// re-arms its one event; Arm schedules an event the caller's struct embeds.
package simclock

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Time is a point in simulated time, expressed as an offset from the
// simulation epoch. The epoch is arbitrary; experiments only ever use
// differences and day-of-week arithmetic (see Weekday).
type Time time.Duration

// Common durations re-exported for readability at call sites.
const (
	Second = Time(time.Second)
	Minute = Time(time.Minute)
	Hour   = Time(time.Hour)
	Day    = 24 * Hour
	Week   = 7 * Day
)

// Duration returns t as a time.Duration since the simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Weekday returns the simulated day of week, with the epoch defined to be a
// Monday at 00:00 (convenient for peak-hour policies).
func (t Time) Weekday() time.Weekday {
	d := int(time.Duration(t) / (24 * time.Hour) % 7)
	if d < 0 {
		d += 7
	}
	// Epoch is Monday.
	return time.Weekday((d + 1) % 7)
}

// HourOfDay returns the hour within the simulated day, in [0,24).
func (t Time) HourOfDay() int {
	h := int(time.Duration(t) / time.Hour % 24)
	if h < 0 {
		h += 24
	}
	return h
}

// String formats the time as "Dd HH:MM:SS" for logs.
func (t Time) String() string {
	d := time.Duration(t)
	days := d / (24 * time.Hour)
	d -= days * 24 * time.Hour
	h := d / time.Hour
	d -= h * time.Hour
	m := d / time.Minute
	d -= m * time.Minute
	s := d / time.Second
	return fmt.Sprintf("D%d %02d:%02d:%02d", days, h, m, s)
}

// Event is a scheduled callback. The callback runs with the clock set to the
// event's time. The zero Event is ready for Arm.
type Event struct {
	at       Time
	seq      uint64 // tie-break so equal-time events run in schedule order
	fn       func(arg any)
	arg      any
	canceled atomic.Bool // atomic: Cancel may come from any goroutine
	pooled   bool        // no handle exists: back to the clock's free list on fire
}

// callFunc is the fn of an event scheduled with a plain func(), its arg.
func callFunc(fn any) { fn.(func())() }

// Cancel prevents a pending event from firing. Canceling an already-fired or
// already-canceled event is a no-op. Safe to call from any goroutine.
func (e *Event) Cancel() {
	if e != nil {
		e.canceled.Store(true)
	}
}

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*Event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Clock is a virtual clock with an attached event queue and a seeded RNG.
//
// The clock's own bookkeeping is mutex-protected, so scheduling calls
// (At/After, Now) may come from any goroutine. Execution, however, is
// strictly serialized: event callbacks run on the driver goroutine, and
// simulation goroutines (Go/WaitUntil, see concurrent.go) run one at a time
// under the clock's run token. Rand is the one exception — it must only be
// used while holding the run token (from event callbacks or simulation
// goroutines), which every simulated subsystem does naturally.
type Clock struct {
	mu    sync.Mutex
	idle  *sync.Cond // signaled when a simulation goroutine parks or exits
	now   Time
	queue eventQueue
	seq   uint64
	rng   *rand.Rand
	fired uint64
	free  []*Event // fired pooled events, reused last in first out

	// Run-token scheduler state (concurrent.go): the goroutine holding the
	// token (nil: the driver), the FIFO of those ready for it
	// (runnable[runHead:]), the live count, the finished ones kept for Go.
	running    *simG
	runnable   []*simG
	runHead    int
	goroutines int
	parked     *parkedGs
}

// New returns a clock at the epoch with an RNG seeded by seed.
func New(seed int64) *Clock {
	c := &Clock{rng: rand.New(rand.NewSource(seed)), parked: new(parkedGs)}
	c.idle = sync.NewCond(&c.mu)
	runtime.SetFinalizer(c.parked, func(p *parkedGs) {
		for _, g := range p.gs {
			close(g.wake) // ends run
		}
	})
	return c
}

// Now returns the current simulated time.
func (c *Clock) Now() Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Rand returns the clock's deterministic RNG. All simulated randomness in
// the repository flows through this so that a campaign is reproducible from
// its seed. It must only be used under the clock's run token (from event
// callbacks or simulation goroutines), never from outside goroutines.
func (c *Clock) Rand() *rand.Rand { return c.rng }

// Fired returns the total number of events executed so far.
func (c *Clock) Fired() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}

// At schedules fn to run at absolute time t. Scheduling in the past (or at
// the current instant) runs the event at the current time, after all events
// already scheduled for that time.
func (c *Clock) At(t Time, fn func()) *Event {
	e := &Event{fn: callFunc, arg: fn}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pushLocked(e, t)
	return e
}

// pushLocked queues e for time t (the current instant if t is past).
func (c *Clock) pushLocked(e *Event, t Time) {
	if t < c.now {
		t = c.now
	}
	e.at, e.seq = t, c.seq
	c.seq++
	heap.Push(&c.queue, e)
}

// After schedules fn to run d after the current time.
func (c *Clock) After(d Time, fn func()) *Event {
	e := &Event{}
	c.Arm(e, d, callFunc, fn)
	return e
}

// Arm schedules the caller's own event (a field of the struct the callback
// works on, say: a cancellable timer without an allocation) to run fn(arg)
// d from now. e must not be pending; once canceled it never fires again.
func (c *Clock) Arm(e *Event, d Time, fn func(arg any), arg any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.fn, e.arg = fn, arg
	c.pushLocked(e, c.now+max(d, 0))
}

// Schedule is After without a handle: fn(arg) runs d from now and cannot be
// canceled, so the clock recycles the event once it has fired. With fn kept
// in a field and what varies passed as arg, scheduling allocates nothing.
func (c *Clock) Schedule(d Time, fn func(arg any), arg any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.scheduleLocked(c.now+max(d, 0), fn, arg)
}

func (c *Clock) scheduleLocked(t Time, fn func(arg any), arg any) {
	var e *Event
	if n := len(c.free); n > 0 {
		e, c.free = c.free[n-1], c.free[:n-1]
	} else {
		e = &Event{pooled: true}
	}
	e.fn, e.arg = fn, arg
	c.pushLocked(e, t)
}

// Ticker repeatedly schedules a callback at a fixed period until stopped.
// Stop is safe to call from any goroutine (subsystem drain paths stop
// their tickers from outside the event loop).
type Ticker struct {
	clock   *Clock
	period  Time
	fn      func()
	event   Event // armed again on every fire
	stopped atomic.Bool
}

// Every schedules fn to run every period, with the first firing one full
// period from now. Stop the returned ticker to cease firing.
func (c *Clock) Every(period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("simclock: non-positive ticker period")
	}
	t := &Ticker{clock: c, period: period, fn: fn}
	c.Arm(&t.event, period, tick, t)
	return t
}

func tick(arg any) {
	t := arg.(*Ticker)
	if t.stopped.Load() {
		return
	}
	t.fn()
	if !t.stopped.Load() {
		t.clock.Arm(&t.event, t.period, tick, t)
	}
}

// Stop halts the ticker. It is safe to call multiple times, from any
// goroutine.
func (t *Ticker) Stop() {
	t.stopped.Store(true)
	t.event.Cancel()
}

// Step lets every runnable simulation goroutine proceed until it parks,
// then runs the next pending event, advancing the clock to its time.
// It reports whether an event was run.
func (c *Clock) Step() bool { return c.step(0, false) }

// step is Step with an optional time bound: when bounded, events past the
// limit stay queued and the bound check happens under the mutex, in the
// same critical section as the pop — a concurrent Cancel of the head
// event can therefore never let a later-than-limit event slip through.
func (c *Clock) step(limit Time, bounded bool) bool {
	c.mu.Lock()
	for {
		c.quiesceLocked()
		e := c.peekLocked()
		if e == nil || (bounded && e.at > limit) {
			c.mu.Unlock()
			return false
		}
		heap.Pop(&c.queue)
		if e.canceled.Load() {
			continue // canceled concurrently between peek and pop
		}
		c.now = e.at
		c.fired++
		fn, arg := e.fn, e.arg
		if e.pooled {
			c.free = append(c.free, e)
		}
		c.mu.Unlock()
		fn(arg)
		c.mu.Lock()
		c.quiesceLocked()
		c.mu.Unlock()
		return true
	}
}

// Run executes events until the queue is empty.
func (c *Clock) Run() {
	for c.Step() {
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to exactly
// t. Events scheduled later remain pending; simulation goroutines blocked in
// WaitUntil past t stay parked and resume on a later run.
func (c *Clock) RunUntil(t Time) {
	for c.step(t, true) {
	}
	c.mu.Lock()
	c.quiesceLocked()
	if c.now < t {
		c.now = t
	}
	c.mu.Unlock()
}

// RunFor executes events for the next d of simulated time.
func (c *Clock) RunFor(d Time) { c.RunUntil(c.Now() + d) }

func (c *Clock) peekLocked() *Event {
	for len(c.queue) > 0 {
		e := c.queue[0]
		if !e.canceled.Load() {
			return e
		}
		heap.Pop(&c.queue)
	}
	return nil
}
