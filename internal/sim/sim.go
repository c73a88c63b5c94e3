package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Simulator is a deterministic discrete-event scheduler.
//
// The zero value is not ready for use; call New. The scheduler itself runs
// in the goroutine that calls Run and resumes process coroutines one at a
// time; each hands control back whenever it blocks on a kernel primitive
// (Sleep, Queue.Pop, Resource.Acquire, Cond.Wait, ...).
type Simulator struct {
	now Time
	seq uint64

	events ladderQueue // reset: keep; snap: keep — rewound by Reset/Restore; empty at quiescence

	// ready is the same-timestamp fast path: events scheduled for the
	// current instant never touch the queue. Because seq grows
	// monotonically, any event scheduled at the current time sorts after
	// every event already queued at that time, so a plain FIFO (drained
	// only once the queue holds nothing at now) preserves the exact
	// (t, seq) global order the queue alone would produce.
	ready     []event
	readyHead int

	procs map[*Proc]struct{} // reset: keep — parked daemons survive a reset by design

	fatal   error // first panic captured from a process; Reset refuses a failed sim
	running bool  // reset: keep — Reset panics unless false
	killed  bool  // reset: keep — Shutdown is terminal; Reset panics if set

	executed uint64 // events dispatched since New or Reset; snap: keep — Restore rezeroes it, the world snapshot records its own event count
}

// errKilled aborts a blocking call issued from a defer while Shutdown is
// unwinding the process.
var errKilled = fmt.Errorf("sim: blocking call during Shutdown teardown")

// New returns an empty simulator positioned at virtual time zero.
func New() *Simulator {
	s := &Simulator{
		ready: make([]event, 0, 64),
		procs: make(map[*Proc]struct{}),
	}
	s.events.bottom.items = make([]event, 0, 128)
	return s
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// EventsExecuted returns the number of events dispatched since New or the
// last Reset. It is the kernel-level cost of a run — a stable, virtual
// measure benchmark harnesses can use to order work largest-first without
// consulting the wall clock.
func (s *Simulator) EventsExecuted() uint64 { return s.executed }

// schedule enqueues fn to run at time t. Panics if t is in the past.
func (s *Simulator) schedule(t Time, fn func()) {
	s.scheduleEvent(t, event{fn: fn})
}

// scheduleProc enqueues a wake of p at time t without allocating a
// closure — the kernel's hottest operation.
//
//ntblint:allocfree
func (s *Simulator) scheduleProc(t Time, p *Proc) {
	s.scheduleEvent(t, event{proc: p})
}

//ntblint:allocfree
func (s *Simulator) scheduleEvent(t Time, ev event) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v, before now %v", t, s.now))
	}
	s.seq++
	ev.t, ev.seq = t, s.seq
	if t == s.now {
		s.ready = append(s.ready, ev)
		return
	}
	s.events.push(ev)
}

// After enqueues fn to run d from now. A negative d is treated as zero.
// fn executes in scheduler context: it must not block on kernel
// primitives; to run blocking code, have fn spawn or wake a process.
func (s *Simulator) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.schedule(s.now.Add(d), fn)
}

// Ticker is a timer target for AfterTick. Tick runs in scheduler
// context under the same rules as an After callback: it must not block
// on kernel primitives.
type Ticker interface {
	Tick(arg uint64)
}

// AfterTick enqueues tk.Tick(arg) to run d from now, like After but
// without allocating a closure: the event carries the receiver and one
// opaque argument inline. Components that arm a timer per chunk or per
// solve (doorbell interrupt delivery, flow-completion wakeups) use this
// so the timer path stays allocation-free; the argument typically
// carries a generation stamp for stale-event detection or a small
// payload such as doorbell bits.
//
//ntblint:allocfree
func (s *Simulator) AfterTick(d Duration, tk Ticker, arg uint64) {
	if tk == nil {
		panic("sim: AfterTick with nil Ticker")
	}
	if d < 0 {
		d = 0
	}
	s.scheduleEvent(s.now.Add(d), event{ticker: tk, targ: arg})
}

// Go spawns a new process executing body and schedules it to start now.
// The name is used in deadlock reports and traces.
func (s *Simulator) Go(name string, body func(p *Proc)) *Proc {
	return s.GoAfter(name, 0, body)
}

// GoDaemon spawns a service process that is allowed to outlive the
// workload: a simulation whose only remaining parked processes are
// daemons is complete, not deadlocked. Use it for device engines and
// interrupt dispatchers that loop forever.
func (s *Simulator) GoDaemon(name string, body func(p *Proc)) *Proc {
	p := s.GoAfter(name, 0, body)
	p.daemon = true
	return p
}

// GoAfter spawns a new process that starts d from now. The process
// takes a coroutine from the idle list when it is first dispatched.
func (s *Simulator) GoAfter(name string, d Duration, body func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, body: body}
	s.procs[p] = struct{}{}
	if d < 0 {
		d = 0
	}
	s.scheduleProc(s.now.Add(d), p)
	return p
}

// dispatch transfers control to p until it parks or exits. It must only be
// called from scheduler context (inside an event callback). Once p's body
// has returned its coroutine has yielded for the last time, so only then
// may it go back to the idle list for another goroutine to resume.
func (s *Simulator) dispatch(p *Proc) {
	if p.exited {
		return
	}
	if p.co == nil {
		p.co = bindCoro(p)
	}
	p.co.next()
	if p.exited {
		releaseCoro(p.co)
		p.co = nil
	}
}

// Run executes events until the queue drains or a process panics.
// It returns an error if a process panicked, or a deadlock error if
// processes remain parked with no pending events. A simulation in which
// all processes ran to completion returns nil.
func (s *Simulator) Run() error {
	return s.run(-1)
}

// RunUntil executes events with time ≤ deadline. Parked processes at the
// deadline are not a deadlock; the clock simply stops advancing.
func (s *Simulator) RunUntil(deadline Time) error {
	return s.run(deadline)
}

func (s *Simulator) run(deadline Time) error {
	if s.running {
		return fmt.Errorf("sim: Run called reentrantly")
	}
	s.running = true
	defer func() { s.running = false }()

loop:
	for s.fatal == nil {
		var ev event
		next := s.events.peek()
		switch {
		case next != nil && next.t == s.now:
			// Queued events at the current instant were scheduled before
			// time advanced here, so they precede everything in ready.
			ev = s.events.pop()
		case s.readyHead < len(s.ready):
			// Same-timestamp fast path: FIFO dispatch, no re-heapify.
			ev = s.ready[s.readyHead]
			s.ready[s.readyHead] = event{} // release fn/proc for GC
			s.readyHead++
			if s.readyHead == len(s.ready) {
				s.ready = s.ready[:0]
				s.readyHead = 0
			}
		case next != nil:
			if deadline >= 0 && next.t > deadline {
				s.now = deadline
				return nil
			}
			ev = s.events.pop()
			s.now = ev.t
		default:
			break loop
		}
		s.executed++
		switch {
		case ev.proc != nil:
			s.dispatch(ev.proc)
		case ev.ticker != nil:
			ev.ticker.Tick(ev.targ)
		default:
			ev.fn()
		}
	}
	if s.fatal != nil {
		return s.fatal
	}
	if deadline < 0 && s.nondaemonProcs() > 0 {
		return s.deadlockError()
	}
	return nil
}

func (s *Simulator) nondaemonProcs() int {
	n := 0
	for p := range s.procs {
		if !p.daemon {
			n++
		}
	}
	return n
}

func (s *Simulator) deadlockError() error {
	names := make([]string, 0, len(s.procs))
	//ntblint:ordered — the report is sorted below, so iteration order never shows
	for p := range s.procs {
		if p.daemon {
			continue
		}
		names = append(names, fmt.Sprintf("%s (blocked on %s)", p.name, p.blockedOn))
	}
	sort.Strings(names)
	return fmt.Errorf("sim: deadlock at %v: %d process(es) parked with no pending events: %s",
		s.now, len(names), strings.Join(names, ", "))
}

// LiveProcs reports the number of processes that have been spawned and have
// not yet exited.
func (s *Simulator) LiveProcs() int { return len(s.procs) }

// Reset rewinds a finished simulator to virtual time zero so its world
// can run again without rebuilding the object graph. Parked daemon
// processes stay parked — they resume service when the next run's events
// wake them — which is exactly what a pooled world wants: device engines
// and dispatchers remain installed. Everything else must have drained;
// Reset panics if the simulator is running, was Shut down, captured a
// panic, or still holds non-daemon processes or pending events. The event
// queue's and ready queue's backing arrays are retained, so a reset
// allocates nothing.
func (s *Simulator) Reset() {
	s.assertQuiescent("Reset")
	s.now = 0
	s.seq = 0
	s.executed = 0
	s.events.reset()
	s.ready = s.ready[:0]
	s.readyHead = 0
}

// assertQuiescent panics unless the simulator is between runs with every
// non-daemon process exited and no events pending — the precondition
// shared by Reset, Snapshot, and Restore.
func (s *Simulator) assertQuiescent(op string) {
	if s.running {
		panic("sim: " + op + " during Run")
	}
	if s.killed {
		panic("sim: " + op + " after Shutdown")
	}
	if s.fatal != nil {
		panic("sim: " + op + " of a failed simulation: " + s.fatal.Error())
	}
	if n := s.nondaemonProcs(); n > 0 {
		panic(fmt.Sprintf("sim: %s with %d non-daemon process(es) live", op, n))
	}
	if s.events.Len() > 0 || s.readyHead < len(s.ready) {
		panic("sim: " + op + " with pending events")
	}
}

// Shutdown releases every parked process (daemons included) and drops
// pending events, so a finished simulation's entire object graph —
// window buffers, heaps, queues — becomes collectable. Harnesses that
// build many simulators in one process (benchmarks, fuzzers) must call it
// between instances or the parked coroutines pin their worlds' memory.
// Each parked process is resumed into a Goexit that runs its user
// defers; its coroutine ends there. A process that never started just
// drops. The simulator must not be running; after Shutdown it must not
// be used except to read the clock.
func (s *Simulator) Shutdown() {
	if s.running {
		panic("sim: Shutdown during Run")
	}
	if s.killed {
		return
	}
	s.killed = true
	//ntblint:ordered — teardown runs after the last observable event; release order is invisible
	for p := range s.procs {
		if p.co == nil {
			continue // never started
		}
		// iter.Pull re-raises the coroutine's Goexit in whoever called
		// next, so resume it from a throwaway goroutine. Sequential
		// teardown: each process fully unwinds (its user defers may
		// touch state shared with sibling processes) before the next is
		// released.
		done := make(chan struct{})
		go func() {
			defer close(done)
			p.co.next()
		}()
		<-done
	}
	s.procs = make(map[*Proc]struct{})
	s.events = ladderQueue{}
	s.ready, s.readyHead = nil, 0
}
