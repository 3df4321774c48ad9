// Multigroup: causal group clocks across replica groups — the extension the
// paper sketches in its conclusion (§5): "includes the value of the
// consistent group clock as a timestamp in the user messages multicast to
// the different groups".
//
// Two replicated services share one Totem ring: an "orders" group whose
// clocks run 100 seconds ahead, and an "audit" group whose clocks are far
// behind. A client reads a timestamp from orders and then (stamped) invokes
// audit. Without the timestamp, audit's reading would precede the orders
// reading it causally depends on; with it, audit's group clock is lifted
// past the timestamp before the read executes. The program exits non-zero
// if the stamped audit reading is not causally after the orders reading.
//
//	go run ./examples/multigroup
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"cts"
	"cts/internal/gcs"
	"cts/internal/hwclock"
	"cts/internal/rpc"
	"cts/internal/sim"
	"cts/internal/simnet"
	"cts/internal/transport"
	"cts/internal/wire"
)

const (
	ordersGroup cts.GroupID = 101
	auditGroup  cts.GroupID = 102
)

type timeApp struct{ svc *cts.Service }

func (a *timeApp) Invoke(ctx *cts.Ctx, method string, body []byte) []byte {
	return wire.MarshalCurrentTime(a.svc.Gettimeofday(ctx))
}
func (a *timeApp) Snapshot() []byte { return nil }
func (a *timeApp) Restore([]byte)   {}

func main() {
	k := sim.NewKernel(5)
	net := simnet.NewNetwork(k, nil)
	ring := []transport.NodeID{0, 1, 2, 3, 4}
	// The client's stack on P0 is built by hand; each replica builds its own.
	cstack, err := gcs.New(gcs.Config{Runtime: k, Transport: net.Endpoint(0),
		Members: ring, Bootstrap: true})
	if err != nil {
		log.Fatal(err)
	}
	var replicas []*cts.Service
	addReplica := func(id transport.NodeID, gid cts.GroupID, offset time.Duration) {
		app := &timeApp{}
		svc, err := cts.New(
			cts.WithRuntime(k),
			cts.WithTransport(net.Endpoint(id)),
			cts.WithMembers(ring),
			cts.WithGroup(gid),
			cts.WithStyle(cts.Active),
			cts.WithApplication(app),
			cts.WithClock(hwclock.NewSim(k.Now, hwclock.WithOffset(offset))),
		)
		if err != nil {
			log.Fatal(err)
		}
		app.svc = svc
		replicas = append(replicas, svc)
	}
	addReplica(1, ordersGroup, 100*time.Second) // orders clocks: +100s
	addReplica(2, ordersGroup, 100*time.Second)
	addReplica(3, auditGroup, 0) // audit clocks: +0s
	addReplica(4, auditGroup, 0)

	newClient := func(cg, sg cts.GroupID) *rpc.Client {
		c, err := rpc.NewClient(rpc.ClientConfig{Runtime: k, Stack: cstack,
			ClientGroup: cg, ServerGroup: sg})
		if err != nil {
			log.Fatal(err)
		}
		return c
	}
	orders := newClient(901, ordersGroup)
	audit := newClient(902, auditGroup)
	// Start in id order, the client's stack first, so that one seed fixes
	// the order of the time-0 sends.
	cstack.Start()
	for _, svc := range replicas {
		if err := svc.Start(); err != nil {
			log.Fatal(err)
		}
	}
	k.RunFor(3 * time.Millisecond)

	read := func(c *rpc.Client, ts time.Duration) (time.Duration, time.Duration) {
		var v, stamp time.Duration
		got := false
		c.InvokeStamped("read", nil, ts, func(r rpc.Reply) {
			got = true
			if r.Err != nil {
				log.Fatal(r.Err)
			}
			var err error
			if v, err = wire.UnmarshalCurrentTime(r.Body); err != nil {
				log.Fatal(err)
			}
			stamp = r.Timestamp
		})
		for !got {
			k.RunFor(200 * time.Microsecond)
		}
		return v, stamp
	}

	aVal, _ := read(audit, 0)
	fmt.Printf("audit clock before causal contact:  %v\n", aVal)
	oVal, oStamp := read(orders, 0)
	fmt.Printf("orders clock (reply timestamp %v):  %v\n", oStamp, oVal)

	unstamped, _ := read(audit, 0)
	fmt.Printf("audit, unstamped invocation:        %v  (precedes the orders reading!)\n", unstamped)

	stamped, _ := read(audit, oStamp)
	fmt.Printf("audit, stamped with orders' clock:  %v  (causally after %v: %v)\n",
		stamped, oVal, stamped > oVal)
	if stamped <= oVal {
		os.Exit(1)
	}
}
