package sim

import (
	"fmt"
	"runtime"
)

// Proc is a simulation process: a coroutine scheduled on virtual time.
// A Proc's body runs on a coroutine of its own (recycled from earlier,
// finished processes), and the kernel guarantees that only one process
// executes at a time, so process code needs no locking when touching
// simulation state. Control passes between the scheduler and the body
// as a direct coroutine switch.
//
// All blocking methods must be called from the process's own body. A
// body must not call runtime.Goexit (t.FailNow included): the coroutine
// cannot survive it, and iter.Pull re-raises the Goexit in the goroutine
// running the scheduler, which is the caller of Run.
type Proc struct {
	sim  *Simulator
	name string
	body func(p *Proc)
	co   *coro // bound at first dispatch; released when the body returns

	exited    bool
	daemon    bool   // daemons may remain parked at end of simulation
	blockedOn string // human-readable label for deadlock reports
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulator this process belongs to.
func (p *Proc) Sim() *Simulator { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// run executes the body on p's coroutine. A panic is captured as the
// simulation's fatal error; either way the process has exited when run
// returns, and the coroutine goes back to the idle list.
func (p *Proc) run() {
	s := p.sim
	defer func() {
		r := recover()
		if s.killed {
			// Shutdown is unwinding this coroutine; there is nothing
			// left to report to.
			return
		}
		if r != nil && s.fatal == nil {
			if err, ok := r.(error); ok {
				// Preserve typed panics (e.g. a runtime's global-exit)
				// for errors.As at the caller.
				s.fatal = fmt.Errorf("sim: process %q panicked: %w", p.name, err)
			} else {
				s.fatal = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
			}
		}
		p.exited = true
		delete(s.procs, p)
	}()
	p.body(p)
}

// park hands control back to the scheduler until some event wakes this
// process. Every park must be paired with exactly one wake.
//
//ntblint:allocfree
func (p *Proc) park(label string) {
	if p.sim.killed {
		// A deferred call running during teardown tried to block (for
		// example a deferred symmetric Free sleeping for its software
		// cost). The scheduler is gone; abort the call. run swallows
		// this, and per Go's recover-during-Goexit semantics the
		// coroutine still terminates even if user code recovers it.
		panic(errKilled)
	}
	p.blockedOn = label
	p.co.yield(struct{}{})
	if p.sim.killed {
		// Shutdown is tearing the simulation down: terminate this
		// coroutine, running user defers on the way out. Goexit (not a
		// panic) so a recover in user code cannot intercept it.
		runtime.Goexit()
	}
	p.blockedOn = ""
}

// wake schedules p to resume at the current virtual time. It must only be
// used by kernel primitives that know p is parked and not yet woken.
//
//ntblint:allocfree
func (p *Proc) wake() {
	p.sim.scheduleProc(p.sim.now, p)
}

// wakeAfter schedules p to resume d from now.
//
//ntblint:allocfree
func (p *Proc) wakeAfter(d Duration) {
	if d < 0 {
		d = 0
	}
	p.sim.scheduleProc(p.sim.now.Add(d), p)
}

// Sleep suspends the process for d of virtual time. A non-positive d
// yields the processor for one scheduling round (other events at the same
// timestamp run first).
//
//ntblint:allocfree
func (p *Proc) Sleep(d Duration) {
	p.wakeAfter(d)
	// A static label: a sleeper always has its wake event pending, so it
	// can never appear in a deadlock report, and formatting the duration
	// here would put fmt.Sprintf on the kernel's hottest path.
	p.park("sleep")
}

// Yield lets every other event already scheduled at the current instant
// run before this process continues.
func (p *Proc) Yield() { p.Sleep(0) }
