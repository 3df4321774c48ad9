package lockorder

// Blocking while a mutex is held: directly in the locking body, through a
// call chain, and inside a package-level function literal — plus the
// negatives that must stay quiet.

import (
	"net"
	"sync"
	"time"
)

type guarded struct {
	mu sync.Mutex
	ch chan int
}

func (g *guarded) badSend(v int) {
	g.mu.Lock()
	g.ch <- v // want: lockorder channel send while lockorder.guarded.mu is held
	g.mu.Unlock()
}

func (g *guarded) badRecvUnderDefer() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return <-g.ch // want: lockorder channel receive
}

func (g *guarded) badSleep() {
	g.mu.Lock()
	defer g.mu.Unlock()
	time.Sleep(time.Millisecond) // want: lockorder time.Sleep ; notime time.Sleep
}

func (g *guarded) badSelect() {
	g.mu.Lock()
	defer g.mu.Unlock()
	select { // want: lockorder select without default
	case v := <-g.ch:
		_ = v
	}
}

func (g *guarded) badDial() {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, _ = net.Dial("udp", "127.0.0.1:1") // want: lockorder net.Dial call
}

func (g *guarded) badWait(wg *sync.WaitGroup) {
	g.mu.Lock()
	wg.Wait() // want: lockorder wg.Wait() call
	g.mu.Unlock()
}

func (g *guarded) badRangeChan() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for v := range g.ch { // want: lockorder range over channel
		_ = v
	}
}

// Reached through a call: the helpers hold no lock themselves.

func drain(wg *sync.WaitGroup) { wg.Wait() }

func nap() {
	time.Sleep(time.Millisecond) // want: notime time.Sleep
}

func (g *guarded) badWaitThrough(wg *sync.WaitGroup) {
	g.mu.Lock()
	defer g.mu.Unlock()
	drain(wg) // want: lockorder wg.Wait() call while lockorder.guarded.mu is held (chain: lockorder.guarded.badWaitThrough → lockorder.drain)
}

func (g *guarded) badSleepThrough() {
	g.mu.Lock()
	nap() // want: lockorder time.Sleep while lockorder.guarded.mu is held (chain: lockorder.guarded.badSleepThrough → lockorder.nap)
	g.mu.Unlock()
}

// A package-level literal is its own body, walked like any other.
var relay = func(g *guarded) {
	g.mu.Lock()
	g.ch <- 1 // want: lockorder channel send while lockorder.guarded.mu is held
	g.mu.Unlock()
}

func (g *guarded) okAfterUnlock(v int) {
	g.mu.Lock()
	g.mu.Unlock()
	g.ch <- v // the lock is released: fine
}

func (g *guarded) okFuncLit() func() {
	g.mu.Lock()
	defer g.mu.Unlock()
	return func() { g.ch <- 1 } // runs later, outside the critical section
}

func (g *guarded) okSelectWithDefault() {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case v := <-g.ch:
		_ = v
	default: // non-blocking poll is fine under the lock
	}
}

// poll never parks: the case's receive is not a block of its own, so a
// caller holding a lock is fine.
func (g *guarded) poll() (int, bool) {
	select {
	case v := <-g.ch:
		return v, true
	default:
		return 0, false
	}
}

func (g *guarded) okPollThrough() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.poll()
}

func (g *guarded) okNoLock(v int) {
	g.ch <- v
}

// An early-return unlock does not fall through: the lock is still held
// after the if.
func (g *guarded) badAfterEarlyReturn(closed bool, v int) {
	g.mu.Lock()
	if closed {
		g.mu.Unlock()
		return
	}
	g.ch <- v // want: lockorder channel send while lockorder.guarded.mu is held
	g.mu.Unlock()
}

// sendLocked is entered with g.mu held and releases it before it blocks,
// so its caller does not block under the lock.
func (g *guarded) sendLocked(v int) {
	g.mu.Unlock()
	g.ch <- v
}

func (g *guarded) okCalleeReleases(v int) {
	g.mu.Lock()
	g.sendLocked(v)
}
