// Quickstart: a three-way actively replicated server whose clock reads are
// rendered deterministic by the consistent time service.
//
// The example runs on a simulated network — discrete-event kernel,
// simulated Ethernet — and builds each replica through the public cts
// facade, which assembles the Totem ring and group layer underneath; only
// the client's group stack is assembled by hand.
// Replicas get physical clocks that disagree by seconds, yet every replica
// observes the identical sequence of group clock values, and the client's
// reads are monotone. The program exits non-zero if the replicas disagree.
//
//	go run ./examples/quickstart
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
	serverGroup cts.GroupID = 100
	clientGroup cts.GroupID = 900
)

// echoTimeApp is the replicated application: CurrentTime returns the group
// clock read through the consistent time service.
type echoTimeApp struct {
	name     string
	svc      *cts.Service
	readings []time.Duration
}

func (a *echoTimeApp) Invoke(ctx *cts.Ctx, method string, body []byte) []byte {
	v := a.svc.Gettimeofday(ctx)
	a.readings = append(a.readings, v)
	return wire.MarshalCurrentTime(v)
}
func (a *echoTimeApp) Snapshot() []byte { return nil }
func (a *echoTimeApp) Restore([]byte)   {}

func main() {
	// A deterministic simulation kernel and a simulated 100 Mb/s Ethernet.
	k := sim.NewKernel(42)
	net := simnet.NewNetwork(k, nil)

	// Four processors: the client on P0, replicas on P1..P3.
	ring := []transport.NodeID{0, 1, 2, 3}
	cstack, err := gcs.New(gcs.Config{
		Runtime:   k,
		Transport: net.Endpoint(0),
		Members:   ring,
		Bootstrap: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Replicas with physical clocks that disagree by SECONDS.
	offsets := map[transport.NodeID]time.Duration{
		1: 0, 2: 5 * time.Second, 3: 15 * time.Second,
	}
	apps := make(map[transport.NodeID]*echoTimeApp)
	for _, id := range ring[1:] {
		clock := hwclock.NewSim(k.Now, hwclock.WithOffset(offsets[id]))
		app := &echoTimeApp{name: id.String()}
		svc, err := cts.New(
			cts.WithRuntime(k),
			cts.WithTransport(net.Endpoint(id)),
			cts.WithMembers(ring),
			cts.WithGroup(serverGroup),
			cts.WithStyle(cts.Active),
			cts.WithApplication(app),
			cts.WithClock(clock),
		)
		if err != nil {
			log.Fatal(err)
		}
		app.svc = svc
		apps[id] = app
	}

	client, err := rpc.NewClient(rpc.ClientConfig{
		Runtime:     k,
		Stack:       cstack,
		ClientGroup: clientGroup,
		ServerGroup: serverGroup,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Start in id order, the client's stack first, so that one seed fixes
	// the order of the time-0 sends.
	cstack.Start()
	for _, id := range ring[1:] {
		if err := apps[id].svc.Start(); err != nil {
			log.Fatal(err)
		}
	}
	k.RunFor(3 * time.Millisecond) // ring forms, group views settle

	fmt.Println("physical clocks: P1=+0s  P2=+5s  P3=+15s")
	fmt.Println()
	done := 0
	var invoke func()
	invoke = func() {
		client.Invoke("CurrentTime", nil, func(r rpc.Reply) {
			if r.Err != nil {
				log.Fatal(r.Err)
			}
			v, err := wire.UnmarshalCurrentTime(r.Body)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("read %d: group clock = %-14v (virtual time %v, replied by P%d)\n",
				done+1, v, k.Now().Round(time.Microsecond), r.Replica)
			done++
			if done < 8 {
				invoke()
			}
		})
	}
	invoke()
	for k.Now() < 5*time.Second && done < 8 {
		k.RunFor(time.Millisecond)
	}

	fmt.Println("\nper-replica recorded group clock values (must be identical):")
	for _, id := range ring[1:] {
		fmt.Printf("  %v: %v\n", id, apps[id].readings)
	}
	same := true
	for i := range apps[1].readings {
		if apps[1].readings[i] != apps[2].readings[i] ||
			apps[2].readings[i] != apps[3].readings[i] {
			same = false
		}
	}
	fmt.Printf("\nconsistent across replicas: %v\n", same)
	if !same {
		os.Exit(1)
	}
}
