//go:build go1.23

package sim

import (
	"iter"
	"sync"
)

// coro is the stackful coroutine a process body runs on: a stdlib
// iter.Pull whose sequence function runs bound bodies back to back.
// The scheduler resumes it with next (dispatch) and the bound process
// suspends it with yield (park); each is one direct runtime coroutine
// switch, with no channel operation and no trip through the Go
// scheduler's run queue.
//
// Coroutines are recycled: once a body returns, the coroutine yields
// one last time and dispatch puts it on idleCoros, where the next spawn
// in any simulator picks it up. A coroutine is only ever resumed by the
// goroutine that holds its process's simulator (or by Shutdown's
// teardown goroutine); the runtime lets any goroutine do so.
type coro struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	p     *Proc // the bound process; nil while idle
}

// idleCoros is the process-wide free list of coroutines parked between
// bodies. Simulators on different goroutines share it, hence the lock;
// the lock also orders one owner's last switch before the next owner's
// first. It is not a sync.Pool: a GC would drop parked coroutines from
// that without ending their goroutines.
var idleCoros struct {
	sync.Mutex
	list []*coro
}

// bindCoro hands p an idle coroutine, creating one if the list is empty.
func bindCoro(p *Proc) *coro {
	var c *coro
	idleCoros.Lock()
	if n := len(idleCoros.list); n > 0 {
		c = idleCoros.list[n-1]
		idleCoros.list[n-1] = nil
		idleCoros.list = idleCoros.list[:n-1]
	}
	idleCoros.Unlock()
	if c == nil {
		c = newCoro()
	}
	c.p = p
	return c
}

// releaseCoro returns a coroutine whose body has returned (and which has
// therefore yielded) to the idle list.
func releaseCoro(c *coro) {
	c.p = nil
	idleCoros.Lock()
	idleCoros.list = append(idleCoros.list, c)
	idleCoros.Unlock()
}

func newCoro() *coro {
	c := new(coro)
	// stop is never called: an idle coroutine lives for the rest of the
	// process, and one torn down by Shutdown ends through Goexit.
	c.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for {
			c.p.run()
			yield(struct{}{})
		}
	})
	return c
}
