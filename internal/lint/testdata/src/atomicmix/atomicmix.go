// Package atomicmix is ctslint golden corpus: the sync/atomic function API
// is banned everywhere; the typed atomics are free.
package atomicmix

import (
	"sync/atomic"
	sa "sync/atomic"
)

type counter struct {
	n     uint64
	typed atomic.Uint64
}

func (c *counter) inc() {
	atomic.AddUint64(&c.n, 1) // want: atomicmix AddUint64
}

func (c *counter) read() uint64 {
	return sa.LoadUint64(&c.n) // want: atomicmix LoadUint64
}

func (c *counter) plainRead() uint64 {
	return c.n // the function API is the finding, wherever it is used
}

func (c *counter) okTyped() uint64 {
	c.typed.Add(1)
	c.typed.CompareAndSwap(1, 2)
	return c.typed.Load()
}

func okShadowed() {
	atomic := fakeAtomic{} // a local binding shadows the package
	atomic.AddUint64()
}

type fakeAtomic struct{}

func (fakeAtomic) AddUint64() {}
