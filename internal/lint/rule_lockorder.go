package lint

// checkLockorder builds the repo-wide mutex-acquisition order graph and
// reports the two shapes that turn into distributed-system outages:
//
//   - cycles: lock class A is taken while B is held somewhere and B while A
//     is held somewhere else — two goroutines interleaving those paths
//     deadlock, and in this system a deadlocked replica holds the token (or
//     the lease plane) hostage for the whole group;
//   - blocking hazards: an operation that parks the goroutine (channel send
//     or receive, range over a channel, select without default, time.Sleep,
//     a net call, Wait()) or a sync.Cond.Broadcast, performed while a mutex
//     is held — directly in the same body, or reached through any call
//     chain. Token rotation bounds every replica's clock-read latency
//     (PAPER §4), so one replica parked inside a critical section slows the
//     whole group, and lock-then-receive is the classic distributed
//     deadlock. sync.Cond.Wait, which must be called with its lock held, is
//     the intended exception: baseline it in lint.allow where used.
//
// Lock identity is the canonical class from summary.lockClass
// ("core.TimeService.mu"): distinct instances of one class are merged,
// because an order inversion between two instances of the same class
// deadlocks just the same. Edges carry a witness position and call chain so
// the finding names where the inversion is introduced, not just that one
// exists.

import (
	"go/token"
	"sort"
	"strings"
)

// blockWitness is a transitively reachable blocking operation.
type blockWitness struct {
	desc  string
	chain []string
}

// lockEdge is one "to acquired while from is held" observation; the
// smallest-position witness is kept per (from, to) pair.
type lockEdge struct {
	from, to string
	pkg      *Package
	pos      token.Pos
	chain    []string
}

func checkLockorder(g *Graph) []Finding {
	var out []Finding

	// Pass 1 — transitive summaries, bottom-up over SCCs. For each function:
	// the lock classes any call path below it acquires (with the name chain
	// to the first acquisition) and the first blocking operation it can
	// reach. Within an SCC the members call each other, so iterate to a
	// fixpoint; len(scc)+1 rounds bound the longest propagation chain.
	acqOf := make(map[*FuncNode]map[string][]string)
	blkOf := make(map[*FuncNode]*blockWitness)
	for _, scc := range g.sccs {
		for iter := 0; iter <= len(scc); iter++ {
			for _, n := range scc {
				a := make(map[string][]string)
				var b *blockWitness
				for _, ev := range n.sum.acquires {
					if _, ok := a[ev.class]; !ok {
						a[ev.class] = []string{n.name}
					}
				}
				if len(n.sum.blocks) > 0 {
					b = &blockWitness{n.sum.blocks[0].desc, []string{n.name}}
				}
				for _, c := range n.sum.calls {
					for _, t := range c.targets {
						m := g.nodeOf(t)
						if m == nil {
							continue
						}
						for cls, chain := range acqOf[m] {
							if _, ok := a[cls]; !ok {
								a[cls] = append([]string{n.name}, chain...)
							}
						}
						if b == nil && blkOf[m] != nil {
							w := blkOf[m]
							b = &blockWitness{w.desc, append([]string{n.name}, w.chain...)}
						}
					}
				}
				acqOf[n] = a
				blkOf[n] = b
			}
		}
	}

	// Pass 2 — order edges and hazards from every body (declared functions
	// and function literals alike).
	edges := make(map[[2]string]lockEdge)
	addEdge := func(e lockEdge) {
		key := [2]string{e.from, e.to}
		old, ok := edges[key]
		if !ok || posLess(g, e.pkg, e.pos, old.pkg, old.pos) {
			edges[key] = e
		}
	}
	type siteKey struct {
		pos  token.Pos
		desc string
	}
	reported := make(map[siteKey]bool)
	hazard := func(pkg *Package, pos token.Pos, desc, held string, chain []string) {
		k := siteKey{pos, desc}
		if reported[k] {
			return
		}
		reported[k] = true
		msg := desc + " while " + held + " is held"
		if len(chain) > 1 {
			msg += " (chain: " + strings.Join(chain, " → ") + ")"
		}
		out = append(out, Finding{
			Rule:  "lockorder",
			Pos:   g.position(pkg, pos),
			Scope: pkg.scopeOf(pos),
			Msg:   msg,
			Chain: append([]string(nil), chain...),
		})
	}

	scan := func(name string, sum *summary) {
		for _, ev := range sum.acquires {
			for _, h := range ev.held {
				addEdge(lockEdge{h, ev.class, ev.pkg, ev.pos, []string{name}})
			}
		}
		for _, ev := range sum.blocks {
			if len(ev.held) > 0 {
				hazard(ev.pkg, ev.pos, ev.desc, strings.Join(ev.held, ", "), []string{name})
			}
		}
		for _, c := range sum.calls {
			if len(c.held) == 0 {
				continue
			}
			for _, t := range c.targets {
				m := g.nodeOf(t)
				if m == nil {
					continue
				}
				for cls, chain := range acqOf[m] {
					for _, h := range c.held {
						addEdge(lockEdge{h, cls, c.pkg, c.pos, append([]string{name}, chain...)})
					}
				}
				if w := blkOf[m]; w != nil {
					hazard(c.pkg, c.pos, w.desc, strings.Join(c.held, ", "),
						append([]string{name}, w.chain...))
				}
			}
		}
	}
	for _, n := range g.funcs {
		scan(n.name, n.sum)
	}
	for _, s := range g.anon {
		scan(s.name, s)
	}

	out = append(out, lockCycles(g, edges)...)
	return out
}

// lockCycles finds strongly connected components of the lock-order graph and
// reports one finding per cycle, positioned at the cycle's smallest witness.
func lockCycles(g *Graph, edges map[[2]string]lockEdge) []Finding {
	succ := make(map[string][]string)
	classes := make(map[string]bool)
	for key := range edges {
		succ[key[0]] = append(succ[key[0]], key[1])
		classes[key[0]] = true
		classes[key[1]] = true
	}
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		sort.Strings(succ[c])
	}

	// Tarjan over lock classes.
	index := 1
	idx := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	var strongconnect func(v string)
	strongconnect = func(v string) {
		idx[v], low[v] = index, index
		index++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ[v] {
			if idx[w] == 0 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && idx[w] < low[v] {
				low[v] = idx[w]
			}
		}
		if low[v] == idx[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, c := range names {
		if idx[c] == 0 {
			strongconnect(c)
		}
	}

	var out []Finding
	for _, scc := range sccs {
		if len(scc) == 1 {
			if _, self := edges[[2]string{scc[0], scc[0]}]; !self {
				continue
			}
		}
		sort.Strings(scc)
		in := make(map[string]bool, len(scc))
		for _, c := range scc {
			in[c] = true
		}
		// Witness: the smallest-position edge inside the component.
		var wit *lockEdge
		for _, c := range scc {
			for _, w := range succ[c] {
				if !in[w] {
					continue
				}
				e := edges[[2]string{c, w}]
				if wit == nil || posLess(g, e.pkg, e.pos, wit.pkg, wit.pos) {
					cp := e
					wit = &cp
				}
			}
		}
		cycle := cyclePath(scc[0], in, succ, edges)
		out = append(out, Finding{
			Rule:  "lockorder",
			Pos:   g.position(wit.pkg, wit.pos),
			Scope: wit.pkg.scopeOf(wit.pos),
			Msg:   "lock order cycle: " + strings.Join(cycle, " → "),
			Chain: cycle,
		})
	}
	return out
}

// cyclePath walks edges inside the component from start back to start,
// preferring lexicographically smaller successors, and renders the cycle.
func cyclePath(start string, in map[string]bool, succ map[string][]string, edges map[[2]string]lockEdge) []string {
	path := []string{start}
	seen := map[string]bool{start: true}
	cur := start
	for {
		next := ""
		for _, w := range succ[cur] {
			if !in[w] {
				continue
			}
			if w == start && len(path) > 1 {
				return append(path, start)
			}
			if !seen[w] && next == "" {
				next = w
			}
		}
		if _, self := edges[[2]string{cur, cur}]; self && cur == start && len(path) == 1 {
			return []string{start, start}
		}
		if next == "" {
			// No unvisited successor: close on start if possible (shouldn't
			// be unreachable inside one SCC, but stay total).
			return append(path, start)
		}
		seen[next] = true
		path = append(path, next)
		cur = next
	}
}

// posLess orders two positions across the shared FileSet.
func posLess(g *Graph, pa *Package, a token.Pos, pb *Package, b token.Pos) bool {
	qa, qb := g.position(pa, a), g.position(pb, b)
	if qa.Filename != qb.Filename {
		return qa.Filename < qb.Filename
	}
	return qa.Offset < qb.Offset
}
