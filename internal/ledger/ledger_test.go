// Package ledger is the mutation ledger (DESIGN.md §5 and §8): seeded bugs,
// each an exact find/replace edit of real repository code, run against the
// repository's own checks. It has two tables over one harness: lint rules
// (each row is a bug its rule must report) and protocol mechanisms (each row
// disables one safety mechanism of the time service). The package holds only
// tests, so no table lives inside the code it mutates.
//
// Tier-1 checks that every row still applies and that each lint row is
// reported by its rule; `make ledger` (build tag ledger, columns_test.go)
// runs every row through every CI step.
package ledger

import (
	"go/format"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cts/internal/lint"
)

// root is the module root, relative to this package's directory.
const root = "../.."

// row is one seeded bug: exact find/replace edits of one repository file.
// Every old must occur exactly once in the file, so a row that drifted from
// the code fails instead of silently testing nothing.
type row struct {
	mechanism string // the lint rule that must report it, or the protocol mechanism it disables
	name      string
	file      string // module-relative, slash-separated
	edits     []edit
}

type edit struct{ old, new string }

// lintRows holds three seeded bugs per ctslint rule. TestMutationLedger
// proves the rule reports each one; `make ledger` records which CI steps
// also catch it.
var lintRows = []row{
	{"allocfree", "batchloop-sprintf", "internal/timeserve/mmsg_linux.go", []edit{{
		"\t\t\t\tr.dropUnsent(sh)\n\t\t\t\tbreak\n",
		"\t\t\t\tr.dropUnsent(sh)\n\t\t\t\tif s.cfg.OnFallback != nil {\n\t\t\t\t\ts.cfg.OnFallback(fmt.Sprintf(\"sendmmsg failed: errno %d\", r.werr))\n\t\t\t\t}\n\t\t\t\tbreak\n",
	}}},
	{"allocfree", "parserequest-errorf", "internal/timeserve/wire.go", []edit{
		{"\t\"errors\"\n\t\"time\"\n", "\t\"errors\"\n\t\"fmt\"\n\t\"time\"\n"},
		{"\tif len(b) < ReqSize {\n\t\treturn Request{}, ErrShort\n",
			"\tif len(b) < ReqSize {\n\t\treturn Request{}, fmt.Errorf(\"%w: %d of %d bytes\", ErrShort, len(b), ReqSize)\n"},
	}},
	{"allocfree", "leaseread-trace-clamp", "internal/core/lease.go", []edit{{
		"\t\tif int64(g) <= prev {\n\t\t\tbound += time.Duration(prev) - g\n",
		"\t\tif int64(g) <= prev {\n\t\t\ts.obs.Trace(\"core\", \"lease_clamp\", 0, 0, prev-int64(g), \"\")\n\t\t\tbound += time.Duration(prev) - g\n",
	}}},

	{"atomicmix", "udp-read-errors", "internal/udptransport/udptransport.go", []edit{
		{"\treadErrors atomic.Uint64 //", "\treadErrors uint64        //"},
		{"\t\t\tt.readErrors.Add(1)\n", "\t\t\tatomic.AddUint64(&t.readErrors, 1)\n"},
		{"Value: t.readErrors.Load()}", "Value: t.readErrors}"},
	}},
	{"atomicmix", "lease-floor", "internal/core/lease.go", []edit{
		{"\tfloor   atomic.Int64 //", "\tfloor   int64       //"},
		{"\tenabled bool         //", "\tenabled bool        //"},
		{"\tcfg     LeaseConfig  //", "\tcfg     LeaseConfig //"},
		{"\tepoch   uint64       //", "\tepoch   uint64      //"},
		{"\t\tprev := s.lease.floor.Load()\n", "\t\tprev := s.lease.floor\n"},
		{"s.lease.floor.CompareAndSwap(prev, int64(g))", "atomic.CompareAndSwapInt64(&s.lease.floor, prev, int64(g))"},
	}},
	{"atomicmix", "timeserve-reuse-fell", "internal/timeserve/server.go", []edit{
		{"\treuseFell    atomic.Uint64 //", "\treuseFell    uint64        //"},
		{"\t\t\t\ts.reuseFell.Store(1)\n", "\t\t\t\tatomic.StoreUint64(&s.reuseFell, 1)\n"},
		{"return s.reuseFell.Load() != 0 }", "return s.reuseFell != 0 }"},
		{"Value: s.reuseFell.Load()}", "Value: atomic.LoadUint64(&s.reuseFell)}"},
	}},

	{"errdrop", "totem-data-broadcast", "internal/order/totem.go", []edit{{
		"\t_ = n.tr.Broadcast(encodeData(m))\n", "\tn.tr.Broadcast(encodeData(m))\n",
	}}},
	{"errdrop", "rpc-multicast", "internal/rpc/rpc.go", []edit{{
		"\t\tif err := c.stack.Multicast(msg); err != nil {\n\t\t\tc.drop(id)\n\t\t\tdone(Reply{Err: fmt.Errorf(\"rpc: %w\", err)})\n\t\t}\n",
		"\t\tc.stack.Multicast(msg)\n",
	}}},
	{"errdrop", "seq-propose-send", "internal/order/seq.go", []edit{{
		"\t_ = n.tr.Send(n.leader, encodePropose(m))\n", "\tn.tr.Send(n.leader, encodePropose(m))\n",
	}}},

	{"lockorder", "udp-send-sleep", "internal/udptransport/udptransport.go", []edit{
		{"\t\"sync/atomic\"\n", "\t\"sync/atomic\"\n\t\"time\"\n"},
		{"\taddr, ok := t.peers[to]\n\tt.mu.Unlock()\n",
			"\taddr, ok := t.peers[to]\n\ttime.Sleep(time.Microsecond) // pace back-to-back sends\n\tt.mu.Unlock()\n"},
	}},
	{"lockorder", "udp-close-wait", "internal/udptransport/udptransport.go", []edit{{
		"\tif t.closed {\n\t\tt.mu.Unlock()\n\t\t<-t.done\n",
		"\tif t.closed {\n\t\t<-t.done\n\t\tt.mu.Unlock()\n",
	}}},
	{"lockorder", "loop-post-broadcast", "internal/sim/loop.go", []edit{{
		"\tl.queue = append(l.queue, fn)\n\tl.cond.Signal()\n",
		"\tl.queue = append(l.queue, fn)\n\tl.cond.Broadcast()\n",
	}}},

	{"maporder", "gcs-groups-unsorted", "internal/gcs/gcs.go", []edit{{
		"\tslices.Sort(gids)\n", "",
	}}},
	{"maporder", "udp-dests-unsorted", "internal/udptransport/udptransport.go", []edit{
		{"\t\"net\"\n\t\"sort\"\n", "\t\"net\"\n"},
		{"\tsort.Slice(dests, func(i, j int) bool { return dests[i].id < dests[j].id })\n", ""},
	}},
	{"maporder", "seq-electack-unsorted", "internal/order/seq.go", []edit{{
		"\tsort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })\n\tentries := make([]seqEntry, 0, len(seqs))\n\tfor _, s := range seqs {\n\t\tentries = append(entries, *n.received[s])\n",
		"\tentries := make([]seqEntry, 0, len(seqs))\n\tfor _, s := range seqs {\n\t\tentries = append(entries, *n.received[s])\n",
	}}},

	{"notime", "leaseread-wall-clock", "internal/core/lease.go", []edit{{
		"LeaseRead() (LeaseReading, bool) {\n\tsnap := s.lease.snap.Load()\n\tif snap == nil {\n\t\treturn LeaseReading{}, false\n\t}\n\tphys := s.clock.Read()\n",
		"LeaseRead() (LeaseReading, bool) {\n\tsnap := s.lease.snap.Load()\n\tif snap == nil {\n\t\treturn LeaseReading{}, false\n\t}\n\tphys := time.Duration(time.Now().UnixNano())\n",
	}}},
	{"notime", "rpc-latency-wall-clock", "internal/rpc/rpc.go", []edit{
		{"start: c.rt.Now()}", "start: time.Duration(time.Now().UnixNano())}"},
		{"c.rt.Now()-cl.start)", "time.Duration(time.Now().UnixNano())-cl.start)"},
	}},
	{"notime", "udp-read-backoff", "internal/udptransport/udptransport.go", []edit{
		{"\t\"sync/atomic\"\n", "\t\"sync/atomic\"\n\t\"time\"\n"},
		{"\t\t\tt.readErrors.Add(1)\n\t\t\tcontinue\n",
			"\t\t\tt.readErrors.Add(1)\n\t\t\ttime.Sleep(time.Millisecond) // back off before retrying\n\t\t\tcontinue\n"},
	}},
}

// protocolRows holds at least two seeded bugs per safety mechanism of the
// time service: the CCS round rule (§3, Fig. 2–3 of the paper), the lease
// plane's staleness bound, Totem's safe delivery and retransmission, the
// duplicate withdrawal and cancel every orderer shares (§4.3), the group
// view snapshot gcs shares read-only with every handler, state transfer and
// at-most-once execution in replication, request/reply matching in rpc, and
// the timeserve answer. `make ledger` records which
// CI steps catch each; a row no failing check catches is an oracle gap
// (DESIGN.md §5).
var protocolRows = []row{
	{"round rule", "clamp-off", "internal/core/core.go", []edit{{
		"\tif grp < s.lastGroup {\n\t\t// A round proposed before the last federated nudge",
		"\tif false && grp < s.lastGroup {\n\t\t// A round proposed before the last federated nudge",
	}}},
	{"round rule", "second-ordered-wins", "internal/core/core.go", []edit{{
		"\tif w := h.waiting; w != nil && w.round == round {\n",
		"\tif w := h.waiting; w != nil && w.round == round && (round%8 != 0 || rm.sender != s.mgr.LocalNode()) {\n",
	}}},
	{"round rule", "no-causal-floor", "internal/core/core.go", []edit{{
		"if floor := s.causalFloor + time.Microsecond; local < floor {",
		"if floor := s.causalFloor + time.Microsecond; false && local < floor {",
	}}},
	{"round rule", "batch-stale-offset", "internal/core/batch.go", []edit{{
		"\t\tThreadID: threadID, Round: round, Proposed: proposed, Op: op,\n",
		"\t\tThreadID: threadID, Round: round, Proposed: proposed - time.Millisecond, Op: op,\n",
	}}},
	{"round rule", "batch-identity-per-sender", "internal/core/batch.go", []edit{{
		"\tconn, id := batchIdentity(entries)\n",
		"\t_, id := batchIdentity(entries)\n\tconn := wire.ConnID(uint32(s.mgr.LocalNode()))\n",
	}}},

	{"lease", "bound-no-lag-term", "internal/core/lease.go", []edit{{
		"margin:     s.lease.margin + s.lease.lagEst + fedAt,", "margin:     s.lease.margin + fedAt,",
	}}},
	{"lease", "bound-no-aging", "internal/core/lease.go", []edit{{
		"\tbound := snap.margin + time.Duration(float64(elapsed)*(snap.driftPPM+snap.fedPPM)/1e6)\n",
		"\tbound := snap.margin\n",
	}}},

	{"totem", "safepoint-own-aru", "internal/order/totem.go", []edit{
		{"\tif tk.Aru > n.safePoint {\n\t\tn.safePoint = tk.Aru\n\t}\n\taruIn := tk.Aru\n", "\taruIn := tk.Aru\n"},
		{"\t// 3. Update the token's all-received-up-to field.\n\tn.updateAru()\n",
			"\t// 3. Update the token's all-received-up-to field.\n\tn.updateAru()\n\tif n.myAru > n.safePoint {\n\t\tn.safePoint = n.myAru\n\t}\n"},
	}},
	{"totem", "rtr-ignored", "internal/order/totem.go", []edit{{
		"\t\tif m, ok := n.received[s]; ok {\n\t\t\tn.sendData(m)\n\t\t\tn.stats.Retransmissions++\n",
		"\t\tif m, ok := n.received[s]; ok && false {\n\t\t\tn.sendData(m)\n\t\t\tn.stats.Retransmissions++\n",
	}}},

	{"order", "seen-key-kept", "internal/order/outbox.go", []edit{{
		"\tif !p.cancelled && o.keys.Seen(p.dupKey) {\n", "\tif false && !p.cancelled && o.keys.Seen(p.dupKey) {\n",
	}}},
	{"order", "cancel-after-send", "internal/order/outbox.go", []edit{{
		"\tif p.sent {\n\t\treturn false\n", "\tif p.sent {\n\t\treturn true\n",
	}}},

	{"gcs view", "gcs-edit-in-place", "internal/gcs/gcs.go", []edit{{
		"\tt.members = append(make([]transport.NodeID, 0, len(t.members)+1), t.members...)\n", "",
	}}},
	{"gcs view", "gcs-scribble-unchecked", "internal/gcs/gcs.go", []edit{{
		"\tif membersSum(t.lastMembers) != t.lastSum {\n", "\tif false && membersSum(t.lastMembers) != t.lastSum {\n",
	}}},

	{"replication", "getstate-no-lastgroup", "internal/core/recovery.go", []edit{{
		"st := ccsState{specialRound: s.special.round, groupClock: s.lastGroup,\n",
		"st := ccsState{specialRound: s.special.round,\n",
	}}},
	{"replication", "retransmit-reexecuted", "internal/replication/replication.go", []edit{{
		"\tif msg.Seq <= last && ok {\n\t\treturn true\n", "\tif msg.Seq <= last && ok && false {\n\t\treturn true\n",
	}}},

	{"rpc", "stale-reply-matched", "internal/rpc/rpc.go", []edit{{
		"\tcl, ok := c.calls[p.InvocationID]\n\tif !ok {\n\t\tc.stats.DupReplies++\n\t\treturn // duplicate or stale reply\n\t}\n",
		"\tcl, ok := c.calls[p.InvocationID]\n\tif !ok {\n\t\tp.InvocationID = c.nextID\n\t\tif cl, ok = c.calls[p.InvocationID]; !ok {\n\t\t\tc.stats.DupReplies++\n\t\t\treturn // duplicate or stale reply\n\t\t}\n\t}\n",
	}}},
	{"rpc", "first-reply-not-final", "internal/rpc/rpc.go", []edit{{
		"\tc.drop(p.InvocationID)\n\tc.stats.Replies++\n", "\tc.stats.Replies++\n",
	}}},

	{"timeserve", "flagstale-never-set", "internal/timeserve/server.go", []edit{{
		"r := Response{Flags: FlagStale, Node:", "r := Response{Node:",
	}}},
	{"timeserve", "bound-not-served", "internal/timeserve/server.go", []edit{{
		"\t\t\tr.Bound = rd.Bound\n", "",
	}}},
}

// mutate returns src with r's edits applied, failing the test if some
// edit's old text does not occur exactly once.
func (r row) mutate(t testing.TB, src string) string {
	t.Helper()
	for _, e := range r.edits {
		if n := strings.Count(src, e.old); n != 1 {
			t.Fatalf("%s: %q occurs %d times in %s, want exactly 1", r.name, e.old, n, r.file)
		}
		src = strings.Replace(src, e.old, e.new, 1)
	}
	return src
}

// apply performs r's edits on the copy of the module in dir and returns a
// function that restores the file.
func (r row) apply(t testing.TB, dir string) (restore func()) {
	t.Helper()
	path := filepath.Join(dir, filepath.FromSlash(r.file))
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	if err := os.WriteFile(path, []byte(r.mutate(t, string(orig))), 0o644); err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	return func() {
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatalf("%s: restore: %v", r.name, err)
		}
	}
}

// copyModule copies the module into a fresh directory: every file when all
// is set, else only what lint.Load reads (go.mod and the non-test Go files
// outside testdata). It leaves out .git and this package, whose tests check
// the rows against the unmutated code.
func copyModule(t testing.TB, all bool) string {
	t.Helper()
	src, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	err = filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		name := d.Name()
		if d.IsDir() {
			if rel != "." && (name == ".git" || rel == filepath.Join("internal", "ledger") ||
				(!all && (name == "testdata" || strings.HasPrefix(name, ".")))) {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !all && name != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, info.Mode().Perm())
	})
	if err != nil {
		t.Fatalf("copy module: %v", err)
	}
	return dst
}

// TestEditsApply checks every row of both tables against the code as it
// stands: each edit's old text occurs exactly once, and the mutated file is
// gofmt-clean, so no row is caught by formatting alone. Every protocol
// mechanism keeps at least two rows.
func TestEditsApply(t *testing.T) {
	for table, rows := range map[string][]row{"lint": lintRows, "protocol": protocolRows} {
		for _, r := range rows {
			t.Run(table+"/"+r.name, func(t *testing.T) {
				orig, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(r.file)))
				if err != nil {
					t.Fatal(err)
				}
				src := r.mutate(t, string(orig))
				formatted, err := format.Source([]byte(src))
				if err != nil {
					t.Fatalf("mutated %s does not parse: %v", r.file, err)
				}
				if string(formatted) != src {
					t.Errorf("mutated %s is not gofmt-clean", r.file)
				}
			})
		}
	}
	rows := make(map[string]int)
	for _, r := range protocolRows {
		rows[r.mechanism]++
	}
	for m, n := range rows {
		if n < 2 {
			t.Errorf("mechanism %s has %d protocol rows, want at least 2", m, n)
		}
	}
}

// TestMutationLedger applies each lint row to a copy of the module and
// requires its rule to report a finding lint.allow does not cover — the
// catch that justifies the rule. The unmutated copy is clean (ctslint's
// TestRepoClean), so any such finding is the seeded bug's; an
// interprocedural rule may report it down the call chain, outside the
// mutated file.
func TestMutationLedger(t *testing.T) {
	rows := make(map[string]int)
	for _, r := range lintRows {
		rows[r.mechanism]++
	}
	for _, r := range lint.AllRules {
		if rows[r] < 3 {
			t.Errorf("rule %s has %d ledger rows, want at least 3", r, rows[r])
		}
	}

	dir := copyModule(t, false)
	base, err := lint.LoadBaseline(filepath.Join(root, "lint.allow"))
	if err != nil {
		t.Fatalf("LoadBaseline: %v", err)
	}
	unbaselined := func() []lint.Finding {
		pkgs, err := lint.Load(dir, "cts")
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		kept, _ := base.Filter(lint.Run(pkgs, lint.DefaultConfig()), dir)
		return kept
	}
	if kept := unbaselined(); len(kept) != 0 {
		t.Fatalf("unmutated copy has unbaselined findings: %v", kept)
	}
	for _, r := range lintRows {
		t.Run(r.mechanism+"/"+r.name, func(t *testing.T) {
			defer r.apply(t, dir)()
			kept := unbaselined()
			for _, f := range kept {
				if f.Rule == r.mechanism {
					return
				}
			}
			t.Errorf("%s does not report the seeded bug in %s; unbaselined findings: %v", r.mechanism, r.file, kept)
		})
	}
}
