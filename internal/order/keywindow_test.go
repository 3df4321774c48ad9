package order

import (
	"testing"
	"time"

	"cts/internal/transport"
)

// TestKeyWindowBounded drives seq and instant past two generations of
// duplicate keys. Each must keep its table within two generations, still
// suppress a recent key, and have forgotten the oldest one — seq's table
// used to drop every key at once when full, and the instant hub's was never
// pruned.
func TestKeyWindowBounded(t *testing.T) {
	for _, kind := range []Kind{KindSeq, KindInstant} {
		t.Run(string(kind), func(t *testing.T) {
			h := newConfHarness(t, kind, 5, nil)
			ids := confIDs(3)
			for _, id := range ids {
				h.addNode(id, ids, true)
			}
			h.startAll()
			gen := keyGeneration(len(ids))
			windows := func() []*keyWindow {
				if kind == KindInstant {
					return []*keyWindow{&h.hub.out.keys}
				}
				var out []*keyWindow
				for _, id := range ids {
					out = append(out, &h.nodes[id].(*seqNode).out.keys)
				}
				return out
			}
			// broadcast submits keys from..to at sender and returns how many
			// deliveries node 0 saw.
			broadcast := func(sender transport.NodeID, from, to uint64) int {
				before := len(h.deliveries[0])
				for k := from; k <= to; k++ {
					k := k
					h.k.Post(func() { h.nodes[sender].BroadcastCancelable([]byte{1}, false, k) })
					if k%256 == 0 || k == to {
						h.k.RunFor(5 * time.Millisecond)
					}
				}
				h.k.RunFor(20 * time.Millisecond)
				return len(h.deliveries[0]) - before
			}

			total := uint64(3*gen + 17)
			if got := broadcast(0, 1, total); got != int(total) {
				t.Fatalf("ordered %d of %d distinct keys", got, total)
			}
			for i, w := range windows() {
				if w.Len() > 2*gen {
					t.Errorf("window %d holds %d keys, bound is %d", i, w.Len(), 2*gen)
				}
			}
			if got := broadcast(1, total-10, total-10); got != 0 {
				t.Errorf("a recent key was ordered again (%d deliveries)", got)
			}
			if got := broadcast(1, 1, 1); got != 1 {
				t.Errorf("the oldest key is still suppressed (%d deliveries); the window never forgets", got)
			}
			h.stopAll()
		})
	}
}
