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
// Events are the only execution model. Every callback runs on the goroutine
// calling Step/Run/RunUntil/RunFor, one at a time in (time, schedule)
// order: work that lasts simulated time schedules its own continuation
// (the CI server's executor pool completes a build from an event; a
// verification sweep chains one event per check), so campaigns stay
// deterministic without any goroutine of their own.
//
// A clock has no lock. It belongs to the goroutine that steps it, and
// anything else that touches it (a gateway handler, say) must first hold
// whatever its owner holds while stepping: the gateway's shard gate.
//
// The steady state allocates nothing. The handle rule: a *Event returned by
// At or After is never reused, so Cancel on it stays a no-op however long
// after it fired. Events without a handle (Schedule) come from a per-clock
// free list and return to it as they fire; a Ticker re-arms its one event;
// Arm schedules an event the caller's struct embeds.
//
// The pending events sit in a 4-ary min-heap of slots, each an event's key
// (time, then schedule sequence) beside its pointer: a compare reads two
// words of the slot, never the event and never an interface, and a sift
// down visits half the levels a binary heap has. Canceled events stay in
// the heap and are dropped when they reach its top.
//
// A Delayed queue holds events that all fire one fixed delay after they
// are added, such as a timeout armed per submission. Add reserves exactly
// the (time, sequence) key that Schedule with that delay would give at that
// moment, but only the queue's head occupies a heap slot; when it fires,
// the next entry enters the heap with its own reserved key. The delay is
// fixed and the clock never goes back, so the queue's entries are already
// in key order: the heap pops every event, ties included, in the order it
// would if each entry were scheduled on its own, and Fired counts the same.
package simclock

import (
	"fmt"
	"math/rand"
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
	fn       func(arg any)
	arg      any
	canceled bool
	pooled   bool // no handle exists: back to the clock's free list on fire
}

// callFunc is the fn of an event scheduled with a plain func(), its arg.
func callFunc(fn any) { fn.(func())() }

// Cancel prevents a pending event from firing. Canceling an already-fired or
// already-canceled event is a no-op.
func (e *Event) Cancel() {
	if e != nil {
		e.canceled = true
	}
}

// slot is one pending event in the heap, keyed by its time and then by its
// schedule sequence, so equal-time events run in schedule order.
type slot struct {
	at  Time
	seq uint64
	e   *Event
}

func (a slot) before(b slot) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// eventHeap is a 4-ary min-heap of slots: the children of i are 4i+1 to
// 4i+4.
type eventHeap []slot

func (h *eventHeap) push(s slot) {
	q := append(*h, s)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !s.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = s
	*h = q
}

// pop removes the top slot.
func (h *eventHeap) pop() {
	q := *h
	n := len(q) - 1
	last := q[n]
	q[n] = slot{}
	q = q[:n]
	*h = q
	if n == 0 {
		return
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for k := c + 1; k < min(c+4, n); k++ {
			if q[k].before(q[m]) {
				m = k
			}
		}
		if !q[m].before(last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = last
}

// Clock is a virtual clock with an attached event queue and a seeded RNG.
// It is owned by the goroutine stepping it (see the package comment):
// event callbacks run one at a time there, and scheduling, Now and Rand
// are called from those callbacks or by a caller holding the owner's lock.
type Clock struct {
	now   Time
	queue eventHeap
	seq   uint64
	rng   *rand.Rand
	fired uint64
	free  []*Event // fired pooled events, reused last in first out
}

// New returns a clock at the epoch with an RNG seeded by seed.
func New(seed int64) *Clock {
	return &Clock{rng: rand.New(rand.NewSource(seed))}
}

// Goroutines returns 0: the clock runs no goroutine of its own, every
// callback runs on the goroutine stepping it. It stays for callers that
// drained a campaign's goroutines before dropping it.
func (c *Clock) Goroutines() int { return 0 }

// Now returns the current simulated time.
func (c *Clock) Now() Time { return c.now }

// Rand returns the clock's deterministic RNG. All simulated randomness in
// the repository flows through this so that a campaign is reproducible from
// its seed.
func (c *Clock) Rand() *rand.Rand { return c.rng }

// Fired returns the total number of events executed so far.
func (c *Clock) Fired() uint64 { return c.fired }

// At schedules fn to run at absolute time t. Scheduling in the past (or at
// the current instant) runs the event at the current time, after all events
// already scheduled for that time.
func (c *Clock) At(t Time, fn func()) *Event {
	e := &Event{fn: callFunc, arg: fn}
	c.push(e, t)
	return e
}

// push queues e for time t (the current instant if t is past).
func (c *Clock) push(e *Event, t Time) {
	if t < c.now {
		t = c.now
	}
	c.queue.push(slot{at: t, seq: c.seq, e: e})
	c.seq++
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
	e.fn, e.arg = fn, arg
	c.push(e, c.now+max(d, 0))
}

// Schedule is After without a handle: fn(arg) runs d from now and cannot be
// canceled, so the clock recycles the event once it has fired. With fn kept
// in a field and what varies passed as arg, scheduling allocates nothing.
func (c *Clock) Schedule(d Time, fn func(arg any), arg any) {
	var e *Event
	if n := len(c.free); n > 0 {
		e, c.free = c.free[n-1], c.free[:n-1]
	} else {
		e = &Event{pooled: true}
	}
	e.fn, e.arg = fn, arg
	c.push(e, c.now+max(d, 0))
}

// Delayed is a queue of handle-less events that each run fn(arg) one fixed
// delay after their Add, in the order Schedule would run them (see the
// package comment). Only its head holds a heap slot.
type Delayed struct {
	clock *Clock
	delay Time
	fn    func(arg any)
	head  Event // the heap's event for the oldest entry; runs fireDelayed

	// ring holds the entries in Add order: n of them from first on,
	// wrapping; its length is zero or a power of two.
	ring     []delayedEntry
	first, n int
}

// delayedEntry is one Add: the key it reserved and its argument.
type delayedEntry struct {
	at  Time
	seq uint64
	arg any
}

// Delayed returns an empty queue whose entries run fn(arg) d after they are
// added.
func (c *Clock) Delayed(d Time, fn func(arg any)) *Delayed {
	q := &Delayed{clock: c, delay: max(d, 0), fn: fn}
	q.head.fn, q.head.arg = fireDelayed, q
	return q
}

// Add queues fn(arg) to run the queue's delay from now, taking the key
// Schedule(d, fn, arg) would take. Once the ring has grown to the queue's
// peak length, adding allocates nothing.
func (q *Delayed) Add(arg any) {
	c := q.clock
	if q.n == len(q.ring) {
		ring := make([]delayedEntry, max(8, 2*len(q.ring)))
		for i := range q.n {
			ring[i] = q.ring[(q.first+i)&(len(q.ring)-1)]
		}
		q.ring, q.first = ring, 0
	}
	e := delayedEntry{at: c.now + q.delay, seq: c.seq, arg: arg}
	c.seq++
	q.ring[(q.first+q.n)&(len(q.ring)-1)] = e
	q.n++
	if q.n == 1 {
		c.queue.push(slot{at: e.at, seq: e.seq, e: &q.head})
	}
}

// fireDelayed runs the head entry of the queue (arg), after giving the next
// entry the heap slot its key reserved.
func fireDelayed(arg any) {
	q := arg.(*Delayed)
	c := q.clock
	e := q.ring[q.first]
	q.ring[q.first] = delayedEntry{}
	q.first = (q.first + 1) & (len(q.ring) - 1)
	q.n--
	if q.n > 0 {
		next := q.ring[q.first]
		c.queue.push(slot{at: next.at, seq: next.seq, e: &q.head})
	}
	q.fn(e.arg)
}

// Ticker repeatedly schedules a callback at a fixed period until stopped.
type Ticker struct {
	clock   *Clock
	period  Time
	fn      func()
	event   Event // armed again on every fire
	stopped bool
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
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.clock.Arm(&t.event, t.period, tick, t)
	}
}

// Stop halts the ticker. It is safe to call multiple times.
func (t *Ticker) Stop() {
	t.stopped = true
	t.event.Cancel()
}

// Step runs the next pending event, advancing the clock to its time.
// It reports whether an event was run.
func (c *Clock) Step() bool { return c.step(0, false) }

// step is Step with an optional time bound: when bounded, events past the
// limit stay queued.
func (c *Clock) step(limit Time, bounded bool) bool {
	for {
		if len(c.queue) == 0 {
			return false
		}
		top := c.queue[0]
		e := top.e
		if e.canceled {
			c.queue.pop()
			continue
		}
		if bounded && top.at > limit {
			return false
		}
		c.queue.pop()
		c.now = top.at
		c.fired++
		fn, arg := e.fn, e.arg
		if e.pooled {
			c.free = append(c.free, e)
		}
		fn(arg)
		return true
	}
}

// Run executes events until the queue is empty.
func (c *Clock) Run() {
	for c.Step() {
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to exactly
// t. Events scheduled later remain pending and fire on a later run.
func (c *Clock) RunUntil(t Time) {
	for c.step(t, true) {
	}
	c.now = max(c.now, t)
}

// RunFor executes events for the next d of simulated time.
func (c *Clock) RunFor(d Time) { c.RunUntil(c.Now() + d) }
