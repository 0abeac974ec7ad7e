package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Lockorder builds the program's static acquisition-order graph and
// reports anything that could close a wait cycle. Nodes are lock
// classes — "kv.shard.mu"-style struct fields, package-level lock vars,
// and oltp's logical hierarchy levels (oltp/partition, oltp/record).
// Edges come from a nested acquisition observed while another class is
// held, directly or through the whole-program call summaries
// (Pass.FactsOf) — a call into another module package that
// transitively acquires a class draws the same edge a local
// acquisition would. Three kinds of findings:
//
//   - a logical acquisition that climbs the hierarchy (record held,
//     then partition) — reported at the site;
//   - a same-class nested acquisition (the loop walker's second pass
//     exposes iteration-carried holds) — reported at the site, because
//     two instances of one class deadlock unless instances are totally
//     ordered, which the annotation must attest;
//   - a multi-class cycle, possibly spanning packages — reported once
//     per cycle after all packages are analyzed.
var Lockorder = &Analyzer{
	Name: "lockorder",
	Doc: "the static acquisition-order graph over golc lock classes and oltp's " +
		"partition→record hierarchy must stay acyclic; a cycle is a potential " +
		"deadlock.",
	Run:   runLockorder,
	Begin: beginLockorder,
	End:   endLockorder,
}

type orderEdge struct {
	pos     token.Pos // nested acquisition site (first seen)
	example string    // "pkg.fn: held X, acquired Y"
}

var orderGraph map[string]map[string]orderEdge

func beginLockorder() {
	orderGraph = make(map[string]map[string]orderEdge)
}

func addOrderEdge(from, to string, pos token.Pos, example string) {
	m := orderGraph[from]
	if m == nil {
		m = make(map[string]orderEdge)
		orderGraph[from] = m
	}
	if _, ok := m[to]; !ok {
		m[to] = orderEdge{pos: pos, example: example}
	}
}

func logicalRank(class string) int {
	for i, n := range levelNames {
		if class == "oltp/"+n {
			return i
		}
	}
	return levelUnknown
}

func runLockorder(pass *Pass) error {
	forEachFuncDecl(pass.Pkg, func(fd *ast.FuncDecl) {
		fname := pass.Pkg.Types.Name() + "." + fd.Name.Name
		record := func(pos token.Pos, held []heldLock, to string) {
			for _, h := range held {
				if h.class == "" || h.class == to {
					continue // self-edges are reported at the site, below
				}
				addOrderEdge(h.class, to, pos, fname+": held "+h.class+", then acquired "+to)
			}
		}
		walkFuncSum(pass.Pkg.Info, fd.Body, pass.summary(), hooks{
			onAcquire: func(ci callInfo, held []heldLock, second bool) {
				var cls string
				if ci.kind == kindLogicalAcq {
					if ci.level < 0 {
						return
					}
					cls = "oltp/" + levelNames[ci.level]
					for _, h := range held {
						if r := logicalRank(h.class); r > ci.level {
							pass.Reportf(ci.call.Pos(),
								"acquisition climbs the lock hierarchy: %s lock requested while a %s lock is held (order is partition→record)",
								levelNames[ci.level], levelNames[r])
						}
					}
				} else {
					cls = classOf(pass.Pkg.Info, ci.recv)
					if cls == "" {
						return
					}
				}
				for _, h := range held {
					if h.class == cls {
						pass.Reportf(ci.call.Pos(),
							"nested acquisition of lock class %s while another %s is held: deadlocks unless all code acquires instances in one total order",
							cls, cls)
					}
				}
				record(ci.call.Pos(), held, cls)
			},
			onCall: func(ci callInfo, held []heldLock, second bool) {
				if ci.callee == nil {
					return
				}
				ff := pass.FactsOf(ci.callee)
				if ff == nil {
					return
				}
				for _, to := range ff.Classes {
					record(ci.call.Pos(), held, to)
				}
			},
		})
	})
	return nil
}

// endLockorder reports every elementary cycle-closing back edge found by
// DFS over the accumulated graph, once per cycle (canonicalized by its
// node set).
func endLockorder(report func(Diagnostic)) {
	nodes := make([]string, 0, len(orderGraph))
	for n := range orderGraph {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	reported := make(map[string]bool)
	const (
		unvisited = 0
		onStack   = 1
		done      = 2
	)
	state := make(map[string]int)
	var stack []string

	var visit func(n string)
	visit = func(n string) {
		state[n] = onStack
		stack = append(stack, n)
		tos := make([]string, 0, len(orderGraph[n]))
		for to := range orderGraph[n] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			switch state[to] {
			case unvisited:
				visit(to)
			case onStack:
				// Found a cycle: to ... n -> to.
				i := 0
				for ; i < len(stack); i++ {
					if stack[i] == to {
						break
					}
				}
				cycle := append(append([]string(nil), stack[i:]...), to)
				key := canonicalCycle(cycle[:len(cycle)-1])
				if !reported[key] {
					reported[key] = true
					e := orderGraph[n][to]
					report(Diagnostic{
						Analyzer: "lockorder",
						Pos:      e.pos,
						Message: "acquisition-order cycle: " + strings.Join(cycle, " → ") +
							" (potential deadlock; this edge: " + e.example + ")",
					})
				}
			}
		}
		stack = stack[:len(stack)-1]
		state[n] = done
	}
	for _, n := range nodes {
		if state[n] == unvisited {
			visit(n)
		}
	}
}

// canonicalCycle keys a cycle independent of its starting node.
func canonicalCycle(nodes []string) string {
	best := ""
	for i := range nodes {
		rot := append(append([]string(nil), nodes[i:]...), nodes[:i]...)
		s := strings.Join(rot, "→")
		if best == "" || s < best {
			best = s
		}
	}
	return best
}
