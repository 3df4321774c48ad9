// Command ctsnode runs one replica of a consistent-time server group over
// real UDP — the production counterpart of the paper's testbed nodes P1–P3.
// The replicated application answers a CurrentTime method whose result is
// the group clock, read through the consistent time service.
//
// A three-replica group on one machine:
//
//	ctsnode -id 1 -peers 0=127.0.0.1:9000,1=127.0.0.1:9001,2=127.0.0.1:9002,3=127.0.0.1:9003 &
//	ctsnode -id 2 -peers ... &
//	ctsnode -id 3 -peers ... &
//	ctsclient -id 0 -peers ...
//
// The -peers list names every processor in the group (clients included).
// Flags -style (active|passive|semiactive) and -recover (join an existing
// group via state transfer) select the replication behavior; -orderer picks
// the total-order protocol (totem or seq) and must agree across the group. Observability:
// -v logs structured round/view lines, -trace FILE exports the CCS round
// trace as JSON lines, and -metrics D dumps the stack-wide counters every D.
//
// Federation: -topology FILE -group NAME joins this replica's group to a
// multi-group federation (DESIGN §12). The topology file names every group's
// id, CCS peers and federation summary addresses plus the inter-group edges;
// -peers may then be omitted (it defaults to this group's peer list from the
// file). Federation summarizes the lease plane, so groups with neighbors
// also need -serve.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"cts"
	"cts/internal/federation"
	"cts/internal/sim"
	"cts/internal/transport"
	"cts/internal/udptransport"
)

func main() {
	var (
		id        = flag.Uint("id", 1, "this processor's node id")
		peers     = flag.String("peers", "", "comma-separated id=host:port list for every ring member")
		style     = flag.String("style", "active", "replication style: active|passive|semiactive")
		orderer   = flag.String("orderer", "totem", "total-order protocol: totem|seq (must match every group member)")
		recover   = flag.Bool("recover", false, "join an existing group via state transfer")
		verbose   = flag.Bool("v", false, "log rounds and views as structured key=value lines")
		traceFile = flag.String("trace", "", "write the CCS round trace to this file as JSON lines")
		metrics   = flag.Duration("metrics", 0, "dump stack-wide metrics at this interval (0 disables)")

		serve       = flag.String("serve", "", "serve external time queries on this UDP address (e.g. :4460; empty disables)")
		serveShards = flag.Int("serve-shards", 0, "timeserve listener shards (0 = default 1)")
		serveIO     = flag.String("serve-io", "auto", "timeserve kernel I/O path: auto|seq|mmsg")
		lease       = flag.Duration("lease", time.Second, "lease window for external reads between CCS rounds")

		topoFile  = flag.String("topology", "", "federation topology JSON file (joins a multi-group federation; requires -group)")
		groupName = flag.String("group", "", "this node's group name in the -topology file")
		fedBind   = flag.String("fed-bind", "", "federation summary UDP bind address (default: this node's fed entry in the topology)")
	)
	flag.Parse()
	if err := run(runConfig{
		id: uint32(*id), peers: *peers, style: *style, orderer: *orderer, recovering: *recover,
		verbose: *verbose, traceFile: *traceFile, metricsEvery: *metrics,
		serve: *serve, serveShards: *serveShards, serveIO: *serveIO, lease: *lease,
		topoFile: *topoFile, groupName: *groupName, fedBind: *fedBind,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "ctsnode:", err)
		os.Exit(1)
	}
}

// runConfig carries the parsed flags.
type runConfig struct {
	id           uint32
	peers        string
	style        string
	orderer      string
	recovering   bool
	verbose      bool
	traceFile    string
	metricsEvery time.Duration
	serve        string
	serveShards  int
	serveIO      string
	lease        time.Duration
	topoFile     string
	groupName    string
	fedBind      string
}

// fedSetup is the resolved federation plane of a -topology run: the local
// group's identity plus the bound link with its neighbor routes.
type fedSetup struct {
	group     cts.GroupID
	peers     string // group's CCS peer list, for when -peers is omitted
	neighbors []cts.GroupID
	link      *federation.UDPLink
	cfg       cts.FederationConfig
}

// setupFederation parses the topology file, resolves the local group and its
// neighbors, binds the summary socket and installs the neighbor routes.
// Loud by design: a group wired into the topology but missing addresses is a
// configuration error, never a silently idle exchange plane.
func setupFederation(rc runConfig) (*fedSetup, error) {
	if rc.groupName == "" {
		return nil, fmt.Errorf("-topology requires -group (which group this node belongs to)")
	}
	b, err := os.ReadFile(rc.topoFile)
	if err != nil {
		return nil, err
	}
	topo, err := federation.ParseTopology(b)
	if err != nil {
		return nil, err
	}
	g, ok := topo.Group(rc.groupName)
	if !ok {
		return nil, fmt.Errorf("group %q not found in %s", rc.groupName, rc.topoFile)
	}
	fs := &fedSetup{group: cts.GroupID(g.ID), peers: strings.Join(g.Peers, ",")}
	neighbors := topo.Neighbors(rc.groupName)
	if len(neighbors) == 0 {
		return fs, nil // a solo group: valid, nothing to exchange
	}
	if rc.serve == "" {
		return nil, fmt.Errorf("group %q has federation neighbors; -serve is required (summaries come from the lease plane)", g.Name)
	}
	bind := rc.fedBind
	if bind == "" {
		fedAddrs, err := federation.ParseMembers(g.Fed)
		if err != nil {
			return nil, fmt.Errorf("group %q fed addresses: %w", g.Name, err)
		}
		bind = fedAddrs[transport.NodeID(rc.id)]
	}
	if bind == "" {
		return nil, fmt.Errorf("no federation bind address for node %d of group %q: set -fed-bind or a fed entry in the topology", rc.id, g.Name)
	}
	link, err := federation.NewUDPLink(bind)
	if err != nil {
		return nil, err
	}
	for _, nb := range neighbors {
		addrs, err := federation.ParseMembers(nb.Fed)
		if err != nil || len(addrs) == 0 {
			link.Close()
			return nil, fmt.Errorf("neighbor group %q lists no usable fed addresses (%v)", nb.Name, err)
		}
		list := make([]string, 0, len(addrs))
		for _, a := range addrs {
			list = append(list, a)
		}
		sort.Strings(list)
		if err := link.AddRoute(cts.GroupID(nb.ID), list); err != nil {
			link.Close()
			return nil, err
		}
		fs.neighbors = append(fs.neighbors, cts.GroupID(nb.ID))
	}
	fs.link = link
	fs.cfg = cts.FederationConfig{
		Link:          link,
		Neighbors:     fs.neighbors,
		ExchangeEvery: topo.ExchangeEvery,
		MaxStep:       topo.MaxStep,
		Precision:     topo.Precision,
		InitialSlack:  topo.InitialSlack,
	}
	if topo.Key != "" {
		fs.cfg.Key = []byte(topo.Key)
	}
	return fs, nil
}

func parseStyle(s string) (cts.Style, error) {
	switch s {
	case "active":
		return cts.Active, nil
	case "passive":
		return cts.Passive, nil
	case "semiactive":
		return cts.SemiActive, nil
	default:
		return 0, fmt.Errorf("unknown style %q", s)
	}
}

func run(rc runConfig) error {
	id, traceFile, metricsEvery := rc.id, rc.traceFile, rc.metricsEvery
	var fed *fedSetup
	if rc.topoFile != "" {
		var err error
		fed, err = setupFederation(rc)
		if err != nil {
			return err
		}
		if fed.link != nil {
			defer fed.link.Close()
		}
		if rc.peers == "" {
			rc.peers = fed.peers
		}
	}
	peers, err := udptransport.ParsePeers(rc.peers)
	if err != nil {
		return fmt.Errorf("-peers: %w", err)
	}
	if len(peers) < 2 {
		return fmt.Errorf("-peers: need at least two peers, got %d", len(peers))
	}
	style, err := parseStyle(rc.style)
	if err != nil {
		return err
	}
	orderer, err := cts.ParseOrdererKind(rc.orderer)
	if err != nil {
		return err
	}
	if orderer == cts.OrdererInstant {
		return fmt.Errorf("the instant orderer is simulation-only; pick totem or seq")
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

	logger, err := cts.NewLogger(os.Stderr)
	if err != nil {
		return err
	}
	if rc.verbose {
		recvBuf, sendBuf := tr.BufferSizes()
		logger.Log("sockbuf",
			cts.F("node", id),
			cts.F("rcvbuf", recvBuf),
			cts.F("sndbuf", sendBuf))
	}
	var sink cts.TraceSink
	var jsink *cts.JSONLinesSink
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		jsink, err = cts.NewJSONLinesSink(f)
		if err != nil {
			return err
		}
		sink = jsink
	}
	rec, err := cts.NewRecorder(id, sink)
	if err != nil {
		return err
	}
	// Surface the UDP socket's error counters (udp.read_errors,
	// udp.send_errors) next to the stack-wide metrics.
	rec.Register(tr)

	loop := sim.NewLoop()
	defer loop.Close()

	opts := []cts.Option{
		cts.WithRuntime(loop),
		cts.WithTransport(tr),
		cts.WithMembers(ring),
		cts.WithOrderer(cts.OrdererOptions{Kind: orderer}),
		cts.WithStyle(style),
		cts.WithRecovering(rc.recovering),
		cts.WithObservability(rec),
	}
	if fed != nil {
		opts = append(opts, cts.WithGroup(fed.group))
		if fed.link != nil {
			opts = append(opts, cts.WithFederation(fed.cfg))
		}
	}
	if rc.serve != "" {
		tsCfg := cts.TimeServeConfig{
			Addr:        rc.serve,
			Shards:      rc.serveShards,
			LeaseWindow: rc.lease,
			ServeIO:     rc.serveIO,
		}
		if rc.verbose {
			// Degradations (batched syscalls unavailable, SO_REUSEPORT bind
			// refused) are silent by design on the hot path; surface each
			// once to the operator.
			tsCfg.OnFallback = func(reason string) {
				logger.Log("timeserve_fallback", cts.F("reason", reason))
			}
		}
		opts = append(opts, cts.WithTimeServe(tsCfg))
	}
	if rc.verbose {
		opts = append(opts,
			cts.WithOnStatus(func(st cts.Status) {
				logger.Log("status",
					cts.F("style", st.Style),
					cts.F("primary", st.Primary),
					cts.F("in_primary", st.InPrimary),
					cts.F("live", st.Live),
					cts.F("members", st.Members))
			}),
			cts.WithOnRound(func(r cts.RoundReport) {
				logger.Log("round",
					cts.F("round", r.Round),
					cts.F("group", r.GroupClock),
					cts.F("offset", r.Offset),
					cts.F("winner", r.Winner))
			}),
		)
	}
	svc, err := cts.New(opts...)
	if err != nil {
		return err
	}
	defer svc.Stop()
	if err := svc.Start(); err != nil {
		return err
	}
	group := cts.DefaultGroup
	if fed != nil {
		group = fed.group
	}
	logger.Log("up",
		cts.F("node", id),
		cts.F("style", style),
		cts.F("ring", len(ring)),
		cts.F("group", group))
	if fed != nil && fed.link != nil {
		// Attach the receive side only now that the agent exists; frames
		// arriving earlier are dropped, which the loss-tolerant exchange
		// plane absorbs.
		fed.link.SetAgent(svc.Federation())
		logger.Log("federation",
			cts.F("bind", fed.link.LocalAddr()),
			cts.F("neighbors", len(fed.neighbors)))
	}
	if ts := svc.TimeServe(); ts != nil {
		logger.Log("timeserve",
			cts.F("addr", ts.Addr()),
			cts.F("shards", ts.Shards()),
			cts.F("reuseport", ts.ReusePort()),
			cts.F("io", ts.IOPath()),
			cts.F("lease", rc.lease))
	}

	if metricsEvery > 0 {
		var dump func()
		dump = func() {
			svc.DumpMetrics(os.Stderr)
			loop.After(metricsEvery, dump)
		}
		loop.After(metricsEvery, dump)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Log("shutdown", cts.F("node", id))
	// Give in-flight traffic a moment to drain before the deferred stops.
	time.Sleep(100 * time.Millisecond)
	if jsink != nil {
		loop.Post(func() { svc.DumpMetrics(os.Stderr) })
		time.Sleep(10 * time.Millisecond)
		if err := jsink.Flush(); err != nil {
			return fmt.Errorf("flush trace: %w", err)
		}
	}
	return nil
}
