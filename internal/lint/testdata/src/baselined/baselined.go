// Package baselined is ctslint golden corpus: one violation per rule, every
// one covered by testdata/corpus.allow. The corpus test asserts that all of
// them are suppressed and that no allow entry is stale — the negative half
// of the baseline contract.
package baselined

import (
	"sync"
	"sync/atomic"
	"time"

	_ "cts/internal/wire"
)

type thing struct {
	mu sync.Mutex
	ch chan int
	n  uint64
}

// Multicast is a stand-in send primitive.
func (t *thing) Multicast(b []byte) error { return nil }

func sleepy() {
	time.Sleep(time.Millisecond) // suppressed by corpus.allow
}

func (t *thing) lockSend() {
	t.mu.Lock()
	t.ch <- 1 // suppressed by corpus.allow
	t.mu.Unlock()
}

func collect(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k) // suppressed by corpus.allow
	}
	return out
}

func (t *thing) mixed() uint64 {
	return atomic.AddUint64(&t.n, 1) // suppressed by corpus.allow
}

func (t *thing) drop() {
	t.Multicast(nil) // suppressed by corpus.allow
}

//cts:allocfree
func hot() []byte {
	return make([]byte, 8) // suppressed by corpus.allow
}

type duo struct{ x, y sync.Mutex }

func (d *duo) xy() {
	d.x.Lock()
	d.y.Lock() // suppressed by corpus.allow (cycle witness with yx)
	d.y.Unlock()
	d.x.Unlock()
}

func (d *duo) yx() {
	d.y.Lock()
	d.x.Lock()
	d.x.Unlock()
	d.y.Unlock()
}
