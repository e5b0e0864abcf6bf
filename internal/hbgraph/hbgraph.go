// Package hbgraph builds the happens-before graph (Def. 3) of an execution —
// the transitive closure of program order and synchronization order — and
// answers reachability (hb) queries with the four interchangeable algorithms
// of §IV-D:
//
//  1. Vector clocks: a topological sort propagates one clock entry per rank
//     through the graph; queries are O(1) afterwards.
//  2. Graph reachability: breadth-first search per query, with memoization.
//  3. Transitive closure: reverse-topological bitset union; O(1) queries
//     (SegReachability, segreach.go — the segment×segment closure).
//  4. On-the-fly (package otf entry point below via NewOnTheFly): answers
//     queries directly from the matched synchronization edges without
//     building the graph.
//
// Nodes are trace records, identified by (rank, seq). Program-order edges
// are implicit: record (r, k) always precedes (r, k+1). Synchronization
// edges come from the MPI matcher.
//
// The graph-based oracles do not operate on all V records: clocks and
// bitsets only change at synchronization endpoints, so they are computed on
// the sync skeleton (see skeleton.go) — the records that are endpoints of
// sync edges plus per-rank first/last sentinels. Queries on arbitrary refs
// map through the skeleton index and return exactly the full-graph answers.
package hbgraph

import (
	"fmt"

	"verifyio/internal/match"
	"verifyio/internal/trace"
)

// Graph is the happens-before graph.
type Graph struct {
	counts []int   // records per rank
	base   []int   // node-id offset per rank (prefix sums)
	n      int     // total nodes
	rankOf []int32 // rank per node id — O(1) ref(), no binary search on hot paths

	// CSR cross-rank (synchronization) adjacency over dense node ids;
	// program order is implicit. succAdj[succOff[id]:succOff[id+1]] are the
	// sync successors of id, in matcher edge order.
	succOff []int32
	succAdj []int32
	predOff []int32
	predAdj []int32

	edgeCount int

	skel skeleton // sync skeleton; built once in Build
}

// Build constructs the graph for tr with the matcher's synchronization
// edges. Edges referencing records outside the trace are rejected.
func Build(tr *trace.Trace, edges []match.Edge) (*Graph, error) {
	counts := make([]int, tr.NumRanks())
	for rank, recs := range tr.Ranks {
		counts[rank] = len(recs)
	}
	return BuildCounts(counts, edges)
}

// BuildCounts constructs the graph from per-rank record counts alone — the
// graph's node space is positional, so the record contents are never needed.
// This is the entry point for streaming ingestion, where no materialized
// trace exists. Edges referencing records outside the counts are rejected.
func BuildCounts(counts []int, edges []match.Edge) (*Graph, error) {
	g := &Graph{
		counts: make([]int, len(counts)),
		base:   make([]int, len(counts)+1),
	}
	for rank, n := range counts {
		g.counts[rank] = n
		g.base[rank+1] = g.base[rank] + n
	}
	g.n = g.base[len(g.counts)]
	g.rankOf = make([]int32, g.n)
	for r := range g.counts {
		for id := g.base[r]; id < g.base[r+1]; id++ {
			g.rankOf[id] = int32(r)
		}
	}

	// CSR in two passes: count degrees into the offset arrays (shifted by
	// one), prefix-sum, then fill with per-node cursors.
	g.succOff = make([]int32, g.n+1)
	g.predOff = make([]int32, g.n+1)
	for _, e := range edges {
		from, ok1 := g.id(e.From)
		to, ok2 := g.id(e.To)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("hbgraph: edge %v→%v references records outside the trace", e.From, e.To)
		}
		g.succOff[from+1]++
		g.predOff[to+1]++
	}
	for i := 0; i < g.n; i++ {
		g.succOff[i+1] += g.succOff[i]
		g.predOff[i+1] += g.predOff[i]
	}
	g.succAdj = make([]int32, len(edges))
	g.predAdj = make([]int32, len(edges))
	scur := make([]int32, g.n)
	pcur := make([]int32, g.n)
	copy(scur, g.succOff[:g.n])
	copy(pcur, g.predOff[:g.n])
	for _, e := range edges {
		from, _ := g.id(e.From)
		to, _ := g.id(e.To)
		g.succAdj[scur[from]] = to
		scur[from]++
		g.predAdj[pcur[to]] = from
		pcur[to]++
	}
	g.edgeCount = len(edges)

	g.buildSkeleton(edges)
	return g, nil
}

// Nodes returns the number of nodes.
func (g *Graph) Nodes() int { return g.n }

// SyncEdges returns the number of synchronization edges.
func (g *Graph) SyncEdges() int { return g.edgeCount }

// SkeletonNodes returns the size S of the sync skeleton the graph-based
// oracles operate on (sync-edge endpoints plus per-rank sentinels).
func (g *Graph) SkeletonNodes() int { return g.skel.n }

// SkeletonLevels returns the number of topological levels in the skeleton's
// Kahn wavefront schedule (0 for an empty or cyclic skeleton).
func (g *Graph) SkeletonLevels() int {
	if g.skel.cycleErr != nil {
		return 0
	}
	return len(g.skel.levelOff) - 1
}

// SkeletonMaxLevelWidth returns the widest wavefront level — the available
// parallelism of the level-synchronized vector-clock pass. It is bounded by
// the rank count: skeleton nodes on one rank are chained by program order,
// so each level holds at most one node per rank.
func (g *Graph) SkeletonMaxLevelWidth() int { return g.skel.maxWidth }

// inRange reports whether ref names a record of the trace. All oracles share
// this bounds check; queries outside the trace are never hb-related.
func (g *Graph) inRange(ref trace.Ref) bool {
	return ref.Rank >= 0 && ref.Rank < len(g.counts) &&
		ref.Seq >= 0 && ref.Seq < g.counts[ref.Rank]
}

// id maps a record ref to a dense node id.
func (g *Graph) id(ref trace.Ref) (int32, bool) {
	if !g.inRange(ref) {
		return 0, false
	}
	return int32(g.base[ref.Rank] + ref.Seq), true
}

// ref maps a dense node id back to a record ref.
func (g *Graph) ref(id int32) trace.Ref {
	rank := g.rankOf[id]
	return trace.Ref{Rank: int(rank), Seq: int(id) - g.base[rank]}
}

// forEachSucc visits all successors of id: the po successor (if any) and the
// synchronization successors.
func (g *Graph) forEachSucc(id int32, visit func(int32)) {
	if int(id)+1 < g.base[g.rankOf[id]+1] {
		visit(id + 1)
	}
	for _, s := range g.succAdj[g.succOff[id]:g.succOff[id+1]] {
		visit(s)
	}
}

// forEachPred visits all predecessors of id.
func (g *Graph) forEachPred(id int32, visit func(int32)) {
	if int(id) > g.base[g.rankOf[id]] {
		visit(id - 1)
	}
	for _, p := range g.predAdj[g.predOff[id]:g.predOff[id+1]] {
		visit(p)
	}
}

// TopoOrder returns a topological order of all nodes, or an error if po ∪ so
// has a cycle (which Def. 2 forbids; a cycle means the trace or matcher is
// broken).
func (g *Graph) TopoOrder() ([]int32, error) {
	// Indegree pass hoisted per rank: program-order contributions come from
	// the rank cursor (every node but the rank's first has po indegree 1),
	// so no per-node rank lookup is needed, and sync contributions read the
	// CSR arena directly.
	indeg := make([]int32, g.n)
	for r := range g.counts {
		for id := g.base[r] + 1; id < g.base[r+1]; id++ {
			indeg[id] = 1
		}
	}
	for _, to := range g.succAdj {
		indeg[to]++
	}
	// The queue doubles as the order: every node is appended exactly once,
	// and a head cursor pops without re-slicing (queue[1:] would pin the
	// whole backing array while shrinking the visible window).
	order := make([]int32, 0, g.n)
	for id := int32(0); id < int32(g.n); id++ {
		if indeg[id] == 0 {
			order = append(order, id)
		}
	}
	for head := 0; head < len(order); head++ {
		g.forEachSucc(order[head], func(s int32) {
			indeg[s]--
			if indeg[s] == 0 {
				order = append(order, s)
			}
		})
	}
	if len(order) != g.n {
		return nil, fmt.Errorf("hbgraph: po ∪ so contains a cycle (%d of %d nodes ordered)", len(order), g.n)
	}
	return order, nil
}

// Oracle answers happens-before queries. HB(a, b) reports whether a
// happens-before b (strictly: a ≠ b and there is a path a → b).
//
// Implementations must be safe for concurrent HB calls once constructed —
// the parallel verifier shares one oracle across all its workers and model
// passes.
type Oracle interface {
	HB(a, b trace.Ref) bool
	Name() string
}

// sameRankHB answers the trivial program-order case; returns handled=false
// for cross-rank queries.
func sameRankHB(a, b trace.Ref) (result, handled bool) {
	if a.Rank == b.Rank {
		return a.Seq < b.Seq, true
	}
	return false, false
}
