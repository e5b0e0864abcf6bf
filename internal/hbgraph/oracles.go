package hbgraph

import (
	"container/list"
	"sort"
	"sync"

	"verifyio/internal/match"
	"verifyio/internal/obs"
	"verifyio/internal/par"
	"verifyio/internal/trace"
)

// All oracles are safe for concurrent HB queries once constructed: VCOracle
// and SegOracle are immutable, BFSOracle guards its memo with striped locks,
// and OTFOracle keeps per-query state in a sync.Pool. The parallel verifier
// (internal/verify) relies on this contract.
//
// The three graph-based oracles compute over the sync skeleton (skeleton.go)
// and map query refs through it, so their state is O(S·P) / O(S²) instead of
// O(V·P) / O(V²).

// ---------------------------------------------------------------------------
// 1. Vector clocks (§IV-D1)

// VCOracle answers hb queries from precomputed skeleton vector clocks: the
// clock entry (v, r) is the highest sequence index on rank r that
// happens-before-or-equals skeleton node v. Clocks live in one flat
// node-major []int32 — a single allocation instead of one slice per node,
// and adjacent nodes' clocks share cache lines.
type VCOracle struct {
	g      *Graph
	nranks int
	clocks []int32 // len S*nranks; clocks[skelID*nranks+r] (-1 = nothing known)
}

// VCOptions configures vector-clock construction.
type VCOptions struct {
	// Workers bounds the wavefront parallelism; 0 means GOMAXPROCS, 1 forces
	// the serial path. The clocks are identical at every worker count:
	// within a level no node depends on another, and max-merge is
	// order-independent.
	Workers int
	// Obs carries telemetry: pool stats for the wavefront ("par.vc-wavefront.*")
	// and the clock-arena gauges.
	Obs obs.Ctx
}

// vcMinParallelWidth is the level width below which the wavefront pass stays
// on the calling goroutine: a level holds at most one node per rank, so
// narrow levels (few ranks) never amortize the handoff.
const vcMinParallelWidth = 8

// VectorClocks computes skeleton vector clocks serially — O(S·P + E·P) once,
// O(1) per query.
func (g *Graph) VectorClocks() (*VCOracle, error) {
	return g.VectorClocksOpts(VCOptions{Workers: 1})
}

// VectorClocksOpts computes skeleton vector clocks with level-synchronized
// (Kahn wavefront) propagation: levels are processed in order, and the nodes
// within one level — whose predecessors all sit in earlier levels — update
// their clocks concurrently.
func (g *Graph) VectorClocksOpts(opts VCOptions) (*VCOracle, error) {
	s := &g.skel
	if s.cycleErr != nil {
		return nil, s.cycleErr
	}
	nranks := s.nranks
	clocks := make([]int32, s.n*nranks)
	// One closure reused across levels (levels run strictly in sequence):
	// step(i) fills the clock row of the i-th node of the current level.
	var nodes []int32
	step := func(i int) {
		v := nodes[i]
		c := clocks[int(v)*nranks : (int(v)+1)*nranks]
		for r := range c {
			c[r] = -1
		}
		r := s.rankOf[v]
		if v > s.base[r] {
			mergeClock(c, clocks[int(v-1)*nranks:int(v)*nranks])
		}
		for _, p := range s.predAdj[s.predOff[v]:s.predOff[v+1]] {
			mergeClock(c, clocks[int(p)*nranks:(int(p)+1)*nranks])
		}
		if sq := s.seqs[v]; sq > c[r] {
			c[r] = sq
		}
	}
	workers := par.Resolve(opts.Workers)
	for l := 0; l+1 < len(s.levelOff); l++ {
		nodes = s.levelOrder[s.levelOff[l]:s.levelOff[l+1]]
		if workers > 1 && len(nodes) >= vcMinParallelWidth {
			par.DoObs(opts.Obs, "vc-wavefront", workers, len(nodes), step)
		} else {
			for i := range nodes {
				step(i)
			}
		}
	}
	if r := opts.Obs.R; r != nil {
		r.Gauge("hbgraph.vc_arena_bytes").Set(int64(4 * len(clocks)))
		r.Gauge("hbgraph.vc_full_arena_bytes").Set(int64(4 * g.n * nranks))
	}
	return &VCOracle{g: g, nranks: nranks, clocks: clocks}, nil
}

// mergeClock folds src into dst entrywise by max.
func mergeClock(dst, src []int32) {
	for r, v := range src {
		if v > dst[r] {
			dst[r] = v
		}
	}
}

// HB reports whether a happens-before b.
func (o *VCOracle) HB(a, b trace.Ref) bool {
	if res, ok := sameRankHB(a, b); ok {
		return res
	}
	if !o.g.inRange(a) || !o.g.inRange(b) {
		return false
	}
	p := o.g.skelPrev(b)
	return o.clocks[int(p)*o.nranks+a.Rank] >= int32(a.Seq)
}

// ArenaBytes returns the size of the clock arena — 4·S·P bytes, versus the
// 4·V·P a full-graph clock table would need.
func (o *VCOracle) ArenaBytes() int { return 4 * len(o.clocks) }

// Name identifies the algorithm.
func (o *VCOracle) Name() string { return "vector-clock" }

// SegGraph returns the graph whose skeleton coordinates ProbeSeg accepts.
func (o *VCOracle) SegGraph() *Graph { return o.g }

// ProbeSeg answers a pre-resolved cross-rank query in one clock compare:
// the skeleton clock of prev(b) already folds in every path into b's
// segment, so next(a) is not needed.
func (o *VCOracle) ProbeSeg(aRank, aSeq, aNext, bPrev int32) bool {
	return o.clocks[int(bPrev)*o.nranks+int(aRank)] >= aSeq
}

// ---------------------------------------------------------------------------
// 2. Graph reachability (§IV-D2)

// bfsMemoBudget bounds the memory held by BFSOracle's memoized reachability
// rows (bitsets, not the O(V) []bool rows of the naive memo).
const bfsMemoBudget = 32 << 20

// bfsStripes is the lock-striping factor: queries for different source nodes
// contend only within their stripe.
const bfsStripes = 16

// BFSOracle answers hb queries by forward breadth-first search over the sync
// skeleton, memoizing reachability bitsets per source skeleton node in a
// bounded, mutex-striped LRU.
type BFSOracle struct {
	g       *Graph
	words   int // bitset words per row: ceil(S/64)
	stripes [bfsStripes]bfsStripe
}

type bfsStripe struct {
	mu   sync.Mutex
	max  int                     // row capacity of this stripe
	by   map[int32]*list.Element // source skeleton node -> LRU element
	lru  *list.List              // front = most recently used; values are *bfsRow
	hits int64                   // memo hits, under mu
	miss int64                   // memo misses (rows computed), under mu
}

type bfsRow struct {
	id   int32
	bits []uint64
}

// Reachability returns a BFS-based oracle with the default memo budget.
func (g *Graph) Reachability() *BFSOracle {
	return g.reachabilityWithBudget(bfsMemoBudget)
}

// reachabilityWithBudget is the constructor with an explicit memo budget in
// bytes (tests shrink it to force eviction).
func (g *Graph) reachabilityWithBudget(budget int) *BFSOracle {
	o := &BFSOracle{g: g, words: (g.skel.n + 63) / 64}
	rowBytes := 8 * o.words
	if rowBytes == 0 {
		rowBytes = 8
	}
	maxRows := budget / rowBytes
	if maxRows < bfsStripes {
		maxRows = bfsStripes
	}
	for i := range o.stripes {
		o.stripes[i].max = maxRows / bfsStripes
		o.stripes[i].by = make(map[int32]*list.Element)
		o.stripes[i].lru = list.New()
	}
	return o
}

// HB reports whether a happens-before b. Cross-rank queries reduce to
// skeleton reachability: a reaches b in the full graph iff next(a) reaches
// prev(b) in the skeleton (the path enters and leaves the endpoint ranks
// through skeleton nodes; see skeleton.go).
func (o *BFSOracle) HB(a, b trace.Ref) bool {
	if res, ok := sameRankHB(a, b); ok {
		return res
	}
	if !o.g.inRange(a) || !o.g.inRange(b) {
		return false
	}
	src := o.g.skelNext(a)
	dst := o.g.skelPrev(b)
	bits := o.row(src)
	return bits[int(dst)/64]&(1<<(uint(dst)%64)) != 0
}

// row returns the reachability bitset for skeleton source id, computing and
// caching it on a miss. Two goroutines missing on the same source may both
// run the BFS; the duplicate work is bounded and the cached result is
// identical.
func (o *BFSOracle) row(id int32) []uint64 {
	s := &o.stripes[int(id)%bfsStripes]
	s.mu.Lock()
	if el, ok := s.by[id]; ok {
		s.hits++
		s.lru.MoveToFront(el)
		bits := el.Value.(*bfsRow).bits
		s.mu.Unlock()
		return bits
	}
	s.miss++
	s.mu.Unlock()

	bits := o.computeRow(id)

	s.mu.Lock()
	if el, ok := s.by[id]; ok {
		// Lost the race to another goroutine; keep its row.
		s.lru.MoveToFront(el)
		bits = el.Value.(*bfsRow).bits
	} else {
		s.by[id] = s.lru.PushFront(&bfsRow{id: id, bits: bits})
		for s.lru.Len() > s.max {
			old := s.lru.Remove(s.lru.Back()).(*bfsRow)
			delete(s.by, old.id)
		}
	}
	s.mu.Unlock()
	return bits
}

// computeRow runs the forward BFS from skeleton node id into a fresh bitset.
func (o *BFSOracle) computeRow(id int32) []uint64 {
	bits := make([]uint64, o.words)
	queue := make([]int32, 1, 64)
	queue[0] = id
	for head := 0; head < len(queue); head++ {
		o.g.skel.forEachSkelSucc(queue[head], func(s int32) {
			w, m := int(s)/64, uint64(1)<<(uint(s)%64)
			if bits[w]&m == 0 {
				bits[w] |= m
				queue = append(queue, s)
			}
		})
	}
	return bits
}

// Name identifies the algorithm.
func (o *BFSOracle) Name() string { return "reachability" }

// SegGraph returns the graph whose skeleton coordinates ProbeSeg accepts.
func (o *BFSOracle) SegGraph() *Graph { return o.g }

// ProbeSeg answers a pre-resolved cross-rank query from the memoized row of
// next(a) — O(1) on a memo hit, one skeleton BFS on a miss.
func (o *BFSOracle) ProbeSeg(aRank, aSeq, aNext, bPrev int32) bool {
	bits := o.row(aNext)
	return bits[int(bPrev)/64]&(1<<(uint(bPrev)%64)) != 0
}

// MemoStats sums the memo hit/miss counts across stripes. The split is
// scheduling-dependent under concurrent queries (two goroutines can both
// miss on one source), so consumers record it as a volatile metric.
func (o *BFSOracle) MemoStats() (hits, misses int64) {
	for i := range o.stripes {
		s := &o.stripes[i]
		s.mu.Lock()
		hits += s.hits
		misses += s.miss
		s.mu.Unlock()
	}
	return hits, misses
}

// ---------------------------------------------------------------------------
// 4. On-the-fly (§IV-D4)

// OTFOracle answers hb queries straight from the matched synchronization
// edges, without building the happens-before graph: per query it propagates
// a per-rank "earliest reachable sequence" frontier across the edge list
// until fixpoint. Frontier buffers are pooled across queries, and each
// relaxation pass binary-searches the seq-sorted per-rank edge list instead
// of scanning edges below the frontier.
type OTFOracle struct {
	nranks int
	counts []int
	// edgesByRank[r] holds the sync edges originating on rank r, sorted
	// by source sequence.
	edgesByRank [][]match.Edge
	frontiers   sync.Pool // *[]int scratch, len nranks
}

// NewOnTheFly builds the on-the-fly oracle from the matcher output alone.
func NewOnTheFly(tr *trace.Trace, edges []match.Edge) *OTFOracle {
	counts := make([]int, tr.NumRanks())
	for rank, recs := range tr.Ranks {
		counts[rank] = len(recs)
	}
	return NewOnTheFlyCounts(counts, edges)
}

// NewOnTheFlyCounts builds the oracle from per-rank record counts, for
// streaming callers that never materialize the trace.
func NewOnTheFlyCounts(counts []int, edges []match.Edge) *OTFOracle {
	o := &OTFOracle{
		nranks:      len(counts),
		counts:      make([]int, len(counts)),
		edgesByRank: make([][]match.Edge, len(counts)),
	}
	o.frontiers.New = func() any {
		buf := make([]int, o.nranks)
		return &buf
	}
	copy(o.counts, counts)
	for _, e := range edges {
		if e.From.Rank >= 0 && e.From.Rank < o.nranks {
			o.edgesByRank[e.From.Rank] = append(o.edgesByRank[e.From.Rank], e)
		}
	}
	for _, es := range o.edgesByRank {
		sort.Slice(es, func(i, j int) bool {
			if es[i].From.Seq != es[j].From.Seq {
				return es[i].From.Seq < es[j].From.Seq
			}
			return es[i].To.Less(es[j].To)
		})
	}
	return o
}

// HB reports whether a happens-before b.
func (o *OTFOracle) HB(a, b trace.Ref) bool {
	if res, ok := sameRankHB(a, b); ok {
		return res
	}
	if a.Rank < 0 || a.Rank >= o.nranks || b.Rank < 0 || b.Rank >= o.nranks ||
		a.Seq < 0 || a.Seq >= o.counts[a.Rank] || b.Seq < 0 || b.Seq >= o.counts[b.Rank] {
		return false
	}
	// earliest[r]: smallest sequence on rank r known to be hb-after a
	// (math.MaxInt when none).
	const inf = int(^uint(0) >> 1)
	ep := o.frontiers.Get().(*[]int)
	earliest := *ep
	for i := range earliest {
		earliest[i] = inf
	}
	earliest[a.Rank] = a.Seq
	// Relax sync edges to fixpoint: an edge (u → v) applies when u is at
	// or after the frontier on its rank, and pulls v's rank's frontier
	// down to v's sequence. Program order is implicit in the ≥ test, so
	// only the sorted suffix starting at the frontier can apply.
	for changed := true; changed; {
		changed = false
		for r := 0; r < o.nranks; r++ {
			if earliest[r] == inf {
				continue
			}
			es := o.edgesByRank[r]
			at := earliest[r]
			i := sort.Search(len(es), func(i int) bool { return es[i].From.Seq >= at })
			for _, e := range es[i:] {
				if e.To.Seq < earliest[e.To.Rank] {
					earliest[e.To.Rank] = e.To.Seq
					changed = true
				}
			}
		}
	}
	res := earliest[b.Rank] <= b.Seq
	o.frontiers.Put(ep)
	return res
}

// Name identifies the algorithm.
func (o *OTFOracle) Name() string { return "on-the-fly" }
