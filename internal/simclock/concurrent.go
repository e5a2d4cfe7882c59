package simclock

// Concurrent-waiter support: real goroutines inside the deterministic
// simulation.
//
// The CI server's executor pool (internal/ci) runs builds on goroutines
// that must block for simulated time without blocking the event loop, and
// without introducing scheduling races that would make campaigns
// irreproducible. The clock solves this with a single *run token*:
//
//   - Go registers a goroutine with the clock; it starts suspended.
//   - Exactly one party executes at any instant: either the driver (the
//     goroutine inside Step/Run/RunUntil/RunFor) or one simulation
//     goroutine holding the token.
//   - WaitUntil/Sleep give the token back and schedule a wake-up event;
//     wake-ups therefore happen in deterministic event order, and ready
//     goroutines resume in FIFO order, one at a time.
//   - The driver only pops the next event once every ready goroutine has
//     run until it parked (quiesce). Simulated time never advances under a
//     running simulation goroutine's feet.
//
// Every token handoff goes through the clock's mutex, which doubles as the
// happens-before edge chaining all simulation work into one serial order —
// this is what keeps `go test -race` quiet without sprinkling locks over
// every simulated subsystem (they additionally guard their externally
// visible state; see internal/oar, internal/ci).
//
// WaitUntil and Sleep must only be called from goroutines started with Go;
// calling them from the driver would deadlock the token accounting.

// simG is one simulation goroutine. Its wake channel serves every handoff
// of the run token to it, and it outlives its function, parked until Go has
// another: a campaign spawns only as many goroutines as ever run at once.
type simG struct {
	wake chan struct{} // buffered: handing over the token never blocks
	c    *Clock        // nil while parked, see run
	fn   func()
}

// parkedGs holds a clock's finished goroutines, last in first out, in an
// allocation of its own to carry the finalizer that ends them with the clock.
type parkedGs struct{ gs []*simG }

// Go starts fn as a simulation goroutine tracked by the clock. The
// goroutine does not run immediately: it is queued for the run token and
// first executes during the next Step/Run/RunUntil/RunFor, after the
// event that spawned it returns. It may call WaitUntil/Sleep to block for
// simulated time and At/After/Go to schedule further work.
func (c *Clock) Go(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var g *simG
	if n := len(c.parked.gs); n > 0 {
		g, c.parked.gs = c.parked.gs[n-1], c.parked.gs[:n-1]
	} else {
		g = &simG{wake: make(chan struct{}, 1)}
		//g5k:allow baregoroutine this IS the run-token implementation: the goroutine starts parked and only ever runs while holding the token
		go g.run()
	}
	g.c, g.fn = c, fn
	c.goroutines++
	c.runnable = append(c.runnable, g)
	c.idle.Broadcast()
}

// run executes one function per token handoff and parks in between,
// referencing only its simG: a clock whose goroutines have all finished is
// collectable with all its events hold, and that closes wake and ends run.
func (g *simG) run() {
	for range g.wake {
		c := g.c
		g.fn()
		c.mu.Lock()
		g.c, g.fn = nil, nil
		c.running = nil
		c.goroutines--
		c.parked.gs = append(c.parked.gs, g)
		c.idle.Broadcast()
		c.mu.Unlock()
	}
}

// Goroutines returns the number of live simulation goroutines (running,
// ready, or parked in WaitUntil).
func (c *Clock) Goroutines() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.goroutines
}

// WaitUntil parks the calling simulation goroutine until the clock reaches
// t. It returns immediately when t is not in the future. Goroutines parked
// at the same instant resume one at a time, in the order they went to
// sleep.
func (c *Clock) WaitUntil(t Time) {
	c.mu.Lock()
	if t <= c.now {
		c.mu.Unlock()
		return
	}
	g := c.running
	c.scheduleLocked(t, makeRunnable, g)
	c.running = nil
	c.idle.Broadcast()
	c.mu.Unlock()
	<-g.wake
}

// Sleep parks the calling simulation goroutine for d of simulated time.
// The clock cannot advance while the caller holds the run token, so this
// is exactly WaitUntil(Now()+d).
func (c *Clock) Sleep(d Time) {
	if d <= 0 {
		return
	}
	c.WaitUntil(c.Now() + d)
}

// makeRunnable queues a goroutine parked in WaitUntil for the run token. It
// is the wake-up event's callback (driver context, mutex not held).
func makeRunnable(arg any) {
	g := arg.(*simG)
	c := g.c
	c.mu.Lock()
	c.runnable = append(c.runnable, g)
	c.idle.Broadcast()
	c.mu.Unlock()
}

// Latch is a countdown join for simulation goroutines: the deterministic
// equivalent of sync.WaitGroup inside the simulation. A fan-out caller
// creates a Latch with the worker count, each worker calls Done when it
// finishes, and the caller parks in Wait until the count reaches zero —
// releasing the run token while parked, so the workers (and the rest of
// the simulation) can make progress. Wake-ups go through the clock's
// runnable queue, so resumption order stays deterministic (FIFO).
//
// checks.Checker shards cluster sweeps across goroutines this way, the
// same shape as internal/ci's executor pool but with a static fan-out.
type Latch struct {
	c       *Clock
	n       int
	waiters []*simG
}

// NewLatch creates a latch that opens after n Done calls. n must be ≥ 0;
// a zero latch is already open.
func (c *Clock) NewLatch(n int) *Latch {
	if n < 0 {
		panic("simclock: NewLatch with negative count")
	}
	return &Latch{c: c, n: n}
}

// Done decrements the latch. When the count reaches zero every goroutine
// parked in Wait becomes runnable, in the order it went to sleep. Done may
// be called from simulation goroutines or from event callbacks.
func (l *Latch) Done() {
	l.c.mu.Lock()
	defer l.c.mu.Unlock()
	if l.n <= 0 {
		panic("simclock: Latch.Done past zero")
	}
	l.n--
	if l.n == 0 {
		l.c.runnable = append(l.c.runnable, l.waiters...)
		l.waiters = nil
		l.c.idle.Broadcast()
	}
}

// Wait parks the calling simulation goroutine until the latch count drops
// to zero. It returns immediately when the latch is already open. Like
// WaitUntil, it must only be called from goroutines started with Go —
// calling it from the driver would corrupt the run-token accounting.
func (l *Latch) Wait() {
	l.c.mu.Lock()
	if l.n == 0 {
		l.c.mu.Unlock()
		return
	}
	g := l.c.running
	l.waiters = append(l.waiters, g)
	l.c.running = nil
	l.c.idle.Broadcast()
	l.c.mu.Unlock()
	<-g.wake
}

// quiesceLocked blocks the driver until no simulation goroutine is running
// or ready, dispatching ready goroutines one at a time (FIFO). Called with
// the mutex held.
func (c *Clock) quiesceLocked() {
	for c.running != nil || c.runHead < len(c.runnable) {
		if c.running == nil {
			c.running = c.runnable[c.runHead]
			c.runnable[c.runHead] = nil
			if c.runHead++; c.runHead == len(c.runnable) {
				c.runnable, c.runHead = c.runnable[:0], 0
			}
			c.running.wake <- struct{}{}
		}
		c.idle.Wait()
	}
}
