package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mutation is one seeded bug of the mutation ledger (DESIGN.md §8): exact
// find/replace edits of one real repository file. Every old must occur
// exactly once in the file, so a ledger row that drifted from the code
// fails instead of silently testing nothing.
type mutation struct {
	rule  string // the rule that must report the bug
	name  string
	file  string // module-relative, slash-separated
	edits []edit
}

type edit struct{ old, new string }

// ledger holds three seeded bugs per rule. TestMutationLedger proves the
// rule reports each one; the build-tagged TestMutationLedgerColumns reruns
// the other CI steps on each (`make lint-ledger`), and DESIGN.md §8 records
// which of them also catch it.
var ledger = []mutation{
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
		{"\treadErrors atomic.Uint64 //", "\treadErrors uint64 //"},
		{"\t\t\tt.readErrors.Add(1)\n", "\t\t\tatomic.AddUint64(&t.readErrors, 1)\n"},
		{"Value: t.readErrors.Load()}", "Value: t.readErrors}"},
	}},
	{"atomicmix", "lease-floor", "internal/core/lease.go", []edit{
		{"\tfloor   atomic.Int64 //", "\tfloor   int64 //"},
		{"\t\tprev := s.lease.floor.Load()\n", "\t\tprev := s.lease.floor\n"},
		{"s.lease.floor.CompareAndSwap(prev, int64(g))", "atomic.CompareAndSwapInt64(&s.lease.floor, prev, int64(g))"},
	}},
	{"atomicmix", "timeserve-reuse-fell", "internal/timeserve/server.go", []edit{
		{"\treuseFell    atomic.Uint64 //", "\treuseFell    uint64 //"},
		{"\t\t\t\ts.reuseFell.Store(1)\n", "\t\t\t\tatomic.StoreUint64(&s.reuseFell, 1)\n"},
		{"return s.reuseFell.Load() != 0 }", "return s.reuseFell != 0 }"},
		{"Value: s.reuseFell.Load()}", "Value: atomic.LoadUint64(&s.reuseFell)}"},
	}},

	{"errdrop", "totem-data-broadcast", "internal/totem/totem.go", []edit{{
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

// apply performs m's edits on the copy of the module in dir and returns a
// function that restores the file.
func (m mutation) apply(t testing.TB, dir string) (restore func()) {
	t.Helper()
	path := filepath.Join(dir, filepath.FromSlash(m.file))
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v", m.name, err)
	}
	src := string(orig)
	for _, e := range m.edits {
		if n := strings.Count(src, e.old); n != 1 {
			t.Fatalf("%s: %q occurs %d times in %s, want exactly 1", m.name, e.old, n, m.file)
		}
		src = strings.Replace(src, e.old, e.new, 1)
	}
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatalf("%s: %v", m.name, err)
	}
	return func() {
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatalf("%s: restore: %v", m.name, err)
		}
	}
}

// copyModule copies the module rooted at ../.. into a fresh directory:
// every file when all is set, else only what Load reads (go.mod and the
// non-test Go files outside testdata).
func copyModule(t testing.TB, all bool) string {
	t.Helper()
	src, err := filepath.Abs("../..")
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
			if rel != "." && (name == ".git" || (!all && (name == "testdata" || strings.HasPrefix(name, ".")))) {
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

// TestMutationLedger applies each seeded bug to a copy of the module and
// requires its rule to report a finding lint.allow does not cover — the
// catch that justifies the rule. The unmutated copy is clean (TestRepoClean),
// so any such finding is the seeded bug's; an interprocedural rule may
// report it down the call chain, outside the mutated file.
func TestMutationLedger(t *testing.T) {
	rows := make(map[string]int)
	for _, m := range ledger {
		rows[m.rule]++
	}
	for _, r := range AllRules {
		if rows[r] < 3 {
			t.Errorf("rule %s has %d ledger rows, want at least 3", r, rows[r])
		}
	}

	dir := copyModule(t, false)
	base, err := LoadBaseline("../../lint.allow")
	if err != nil {
		t.Fatalf("LoadBaseline: %v", err)
	}
	unbaselined := func() []Finding {
		pkgs, err := Load(dir, "cts")
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		kept, _ := base.Filter(Run(pkgs, DefaultConfig()), dir)
		return kept
	}
	if kept := unbaselined(); len(kept) != 0 {
		t.Fatalf("unmutated copy has unbaselined findings: %v", kept)
	}
	for _, m := range ledger {
		t.Run(m.rule+"/"+m.name, func(t *testing.T) {
			defer m.apply(t, dir)()
			kept := unbaselined()
			for _, f := range kept {
				if f.Rule == m.rule {
					return
				}
			}
			t.Errorf("%s does not report the seeded bug in %s; unbaselined findings: %v", m.rule, m.file, kept)
		})
	}
}
