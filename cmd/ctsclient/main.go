// Command ctsclient invokes the CurrentTime method of a ctsnode server group
// over real UDP and prints the returned group clock values with end-to-end
// latencies — the paper's client on node P0.
//
//	ctsclient -id 0 -peers 0=127.0.0.1:9000,1=127.0.0.1:9001,... -n 100
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"cts/internal/gcs"
	"cts/internal/invariant"
	"cts/internal/order"
	"cts/internal/rpc"
	"cts/internal/sim"
	"cts/internal/stats"
	"cts/internal/transport"
	"cts/internal/udptransport"
	"cts/internal/wire"
)

const (
	serverGroup wire.GroupID = 100
	clientGroup wire.GroupID = 900
)

func main() {
	var (
		id          = flag.Uint("id", 0, "this processor's node id")
		peers       = flag.String("peers", "", "comma-separated id=host:port list for every group member")
		n           = flag.Int("n", 10, "number of invocations")
		gap         = flag.Duration("gap", 10*time.Millisecond, "pause between invocations")
		quiet       = flag.Bool("q", false, "print only the summary")
		ordererName = flag.String("orderer", "totem", "total-order protocol: totem|seq (must match the server group)")
	)
	flag.Parse()
	orderer, err := order.ParseKind(*ordererName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctsclient:", err)
		os.Exit(2)
	}
	if err := run(uint32(*id), *peers, *n, *gap, *quiet, orderer); err != nil {
		fmt.Fprintln(os.Stderr, "ctsclient:", err)
		os.Exit(1)
	}
}

func run(id uint32, peerSpec string, n int, gap time.Duration, quiet bool, orderer order.Kind) error {
	peers, err := udptransport.ParsePeers(peerSpec)
	if err != nil {
		return fmt.Errorf("-peers: %w", err)
	}
	self, ok := peers[transport.NodeID(id)]
	if !ok {
		return fmt.Errorf("node %d not present in -peers", id)
	}
	tr, err := udptransport.New(transport.NodeID(id), self)
	if err != nil {
		return err
	}
	defer tr.Close()
	var ring []transport.NodeID
	for pid, addr := range peers {
		ring = append(ring, pid)
		if pid != transport.NodeID(id) {
			if err := tr.SetPeer(pid, addr); err != nil {
				return err
			}
		}
	}
	// Every process must derive the same ring from the same -peers flag.
	sort.Slice(ring, func(i, j int) bool { return ring[i] < ring[j] })

	loop := sim.NewLoop()
	defer loop.Close()
	stack, err := gcs.New(gcs.Config{
		Runtime:   loop,
		Transport: tr,
		Members:   ring,
		Bootstrap: true,
		Order:     order.Options{Kind: orderer},
	})
	if err != nil {
		return err
	}
	defer stack.Stop()
	client, err := rpc.NewClient(rpc.ClientConfig{
		Runtime:     loop,
		Stack:       stack,
		ClientGroup: clientGroup,
		ServerGroup: serverGroup,
		Timeout:     10 * time.Second,
	})
	if err != nil {
		return err
	}
	stack.Start()
	time.Sleep(300 * time.Millisecond) // let the ring and group views settle

	// The client oracle: Snap before each invocation, Observe its reply with
	// bound 0 (a CCS read is exact), one key for the whole server group.
	var chk invariant.Checker
	var pre invariant.Snapshot
	key := invariant.Key{Group: uint32(serverGroup)}
	var lat stats.Durations
	for i := 0; i < n; i++ {
		chk.Snap(&pre)
		start := time.Now()
		body, err := client.InvokeSync("CurrentTime", nil)
		if err != nil {
			return fmt.Errorf("invocation %d: %w", i, err)
		}
		d := time.Since(start)
		lat.Add(d)
		v, err := wire.UnmarshalCurrentTime(body)
		if err != nil {
			return fmt.Errorf("invocation %d: %w", i, err)
		}
		_, seen := chk.First()
		chk.Observe(&pre, key, v, 0)
		if !quiet {
			fmt.Printf("%3d  group-clock=%v  latency=%v\n", i, v, d)
		}
		if w, ok := chk.First(); ok && !seen {
			fmt.Printf("%3d  %v\n", i, w)
		}
		time.Sleep(gap)
	}
	fmt.Printf("latency: %s\n", lat.Summary())
	return chk.Err()
}
