package conflict

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"verifyio/internal/obs"
	"verifyio/internal/par"
)

// Group is a conflict group (X, ζ) in a flat CSR-style layout: the indices
// of the operations conflicting with X form one ascending []int32 view into
// a Result-wide arena, with per-rank runs delimited by offset views into a
// second arena. Because Result.Ops is ordered by (rank, seq), ascending op
// index is program order and each rank's conflicting operations form one
// contiguous run, ranks ascending — the map-of-slices this layout replaces
// (rank -> program-ordered indices) stored exactly the same information at
// the cost of a map and a slice header per rank per group.
type Group struct {
	// X indexes Result.Ops.
	X int
	// ys are the conflicting op indices, ascending.
	ys []int32
	// runs holds NumRuns()+1 offsets into ys: run k is
	// ys[runs[k]:runs[k+1]], a maximal same-rank span.
	runs []int32
}

// Ys returns the indices (into Result.Ops) of all operations conflicting
// with X, ascending — which is (rank, seq) program order. The slice is a
// view; callers must not modify it.
func (g *Group) Ys() []int32 { return g.ys }

// NumRuns returns the number of per-rank runs in the group.
func (g *Group) NumRuns() int {
	if len(g.runs) == 0 {
		return 0
	}
	return len(g.runs) - 1
}

// RunAt returns the k-th run: the indices of the conflicting operations on
// one rank, in program order. Runs are ordered by ascending rank. The slice
// is a view; callers must not modify it.
func (g *Group) RunAt(k int) []int32 {
	return g.ys[g.runs[k]:g.runs[k+1]]
}

// ByRank materializes the associative view the CSR layout replaced: process
// rank -> indices (into ops, which must be the Result.Ops slice the group
// indexes) of the operations on that rank conflicting with X, in program
// order. It exists for tests and external consumers; hot paths iterate
// RunAt directly.
func (g *Group) ByRank(ops []Op) map[int][]int {
	out := make(map[int][]int, g.NumRuns())
	for k := 0; k < g.NumRuns(); k++ {
		run := g.RunAt(k)
		lst := make([]int, len(run))
		for i, y := range run {
			lst[i] = int(y)
		}
		out[ops[run[0]].Ref.Rank] = lst
	}
	return out
}

// Intra-file sharding parameters. Slice boundaries are a function of the op
// count alone — never of the worker count — so the task list, the spans it
// emits, and every byte of the merged output are determined by the trace.
const (
	// sliceTargetOps is the aimed-for number of sorted intervals per
	// intra-file sweep slice.
	sliceTargetOps = 1024
	// maxFileSlices caps how many slices one file is cut into.
	maxFileSlices = 128
	// histBudgetBytes bounds the transpose histograms (4·K·n bytes): the
	// range count K shrinks before the scratch outgrows this.
	histBudgetBytes = 1 << 24
)

// numSlices is the slice plan for a file with m data operations.
func numSlices(m int) int {
	if m == 0 {
		return 0
	}
	s := (m + sliceTargetOps - 1) / sliceTargetOps
	if s > maxFileSlices {
		s = maxFileSlices
	}
	return s
}

// sweepSlice is one intra-file sweep task: positions [lo, hi) of its file's
// start-sorted interval list, plus the carry-in positions from the left
// whose intervals straddle the slice's boundary. A pair is owned by the
// slice of its later sorted position — the one holding max(I.Start,
// J.Start) — so the task list partitions the pair set exactly: no pair is
// emitted twice, none is missed.
type sweepSlice struct {
	fid    int32
	sub    int32   // slice ordinal within the file
	lo, hi int32   // file-local sorted positions
	carry  []int32 // file-local positions < lo with End > start of position lo
}

func (t *sweepSlice) lane() string {
	return fmt.Sprintf("detect/sweep-%d.%d", t.fid, t.sub)
}

// sliceFile fills out (one entry per slice) with the file's fixed slice
// plan and computes each slice's carry-in set. w is the file's interval
// index, already sorted by (Start, index).
func sliceFile(ops []Op, w []int32, fid int, out []sweepSlice) {
	m, S := len(w), len(out)
	for s := 0; s < S; s++ {
		out[s] = sweepSlice{
			fid: int32(fid), sub: int32(s),
			lo: int32(s * m / S), hi: int32((s + 1) * m / S),
		}
	}
	if S == 1 {
		return
	}
	// bStart[s] is the start offset at slice s's left boundary; it ascends
	// with s because w is start-sorted.
	bStart := make([]int64, S)
	for s := 0; s < S; s++ {
		bStart[s] = ops[w[out[s].lo]].Start
	}
	// Interval i straddles into every later slice whose boundary start it
	// covers: exactly the slices t > sliceOf(i) with End_i > bStart[t].
	// Ascending boundary starts make those a contiguous run (sliceOf(i), t]
	// found by binary search. The carry lists are built as views into one
	// exactly-sized arena — a diff-array counting pass sizes them — and
	// filling in ascending i keeps each list in the order the serial scan
	// would visit it.
	straddle := func(visit func(i, first, last int)) {
		s := 0
		for i := 0; i < m; i++ {
			for s+1 < S && i >= int(out[s+1].lo) {
				s++
			}
			end := ops[w[i]].End
			if s+1 >= S || end <= bStart[s+1] {
				continue
			}
			k := sort.Search(S-s-2, func(q int) bool { return bStart[s+2+q] >= end })
			visit(i, s+1, s+1+k)
		}
	}
	diff := make([]int64, S+1)
	straddle(func(i, first, last int) {
		diff[first]++
		diff[last+1]--
	})
	carryOff := make([]int64, S+1)
	run := int64(0)
	for q := 0; q < S; q++ {
		run += diff[q]
		carryOff[q+1] = carryOff[q] + run
		diff[q] = carryOff[q] // reuse as the fill cursor
	}
	arena := make([]int32, carryOff[S])
	straddle(func(i, first, last int) {
		for q := first; q <= last; q++ {
			arena[diff[q]] = int32(i)
			diff[q]++
		}
	})
	for q := 0; q < S; q++ {
		out[q].carry = arena[carryOff[q]:carryOff[q+1]:carryOff[q+1]]
	}
}

// count sweeps the slice's share of the pairs, bumping both endpoints'
// degrees. Degrees are order-free sums, so the atomic adds from
// concurrently swept slices cannot perturb the result. Returns the number
// of unordered pairs owned by the slice.
func (t *sweepSlice) count(ops []Op, w []int32, deg []int32) int64 {
	var pairs int64
	lo, hi := int(t.lo), int(t.hi)
	for _, ci := range t.carry {
		I := &ops[w[ci]]
		for j := lo; j < hi; j++ {
			J := &ops[w[j]]
			if J.Start >= I.End {
				break // sorted by start: no later interval overlaps I either
			}
			if (!I.Write && !J.Write) || I.Ref.Rank == J.Ref.Rank {
				continue
			}
			atomic.AddInt32(&deg[w[ci]], 1)
			atomic.AddInt32(&deg[w[j]], 1)
			pairs++
		}
	}
	for i := lo; i < hi; i++ {
		I := &ops[w[i]]
		for j := i + 1; j < hi; j++ {
			J := &ops[w[j]]
			if J.Start >= I.End {
				break
			}
			if (!I.Write && !J.Write) || I.Ref.Rank == J.Ref.Rank {
				continue
			}
			atomic.AddInt32(&deg[w[i]], 1)
			atomic.AddInt32(&deg[w[j]], 1)
			pairs++
		}
	}
	return pairs
}

// fill re-runs the slice's sweep, scattering both directed endpoints of
// every pair into the scratch adjacency through atomic cursors. The
// intra-bucket order is scheduling-dependent; the transpose in detectPairs
// produces the same final layout for every such order.
func (t *sweepSlice) fill(ops []Op, w []int32, cur []int64, adj []int32) {
	lo, hi := int(t.lo), int(t.hi)
	for _, ci := range t.carry {
		I := &ops[w[ci]]
		for j := lo; j < hi; j++ {
			J := &ops[w[j]]
			if J.Start >= I.End {
				break
			}
			if (!I.Write && !J.Write) || I.Ref.Rank == J.Ref.Rank {
				continue
			}
			adj[atomic.AddInt64(&cur[w[ci]], 1)-1] = w[j]
			adj[atomic.AddInt64(&cur[w[j]], 1)-1] = w[ci]
		}
	}
	for i := lo; i < hi; i++ {
		I := &ops[w[i]]
		for j := i + 1; j < hi; j++ {
			J := &ops[w[j]]
			if J.Start >= I.End {
				break
			}
			if (!I.Write && !J.Write) || I.Ref.Rank == J.Ref.Rank {
				continue
			}
			adj[atomic.AddInt64(&cur[w[i]], 1)-1] = w[j]
			adj[atomic.AddInt64(&cur[w[j]], 1)-1] = w[i]
		}
	}
}

// transposeRanges picks the parallelism of the transpose and group-build
// passes: one balanced op range per worker, shrunk so the K·n histograms
// stay within histBudgetBytes.
func transposeRanges(workers, n int) int {
	k := workers
	if maxK := histBudgetBytes / (4 * n); k > maxK {
		k = maxK
	}
	if k < 1 {
		k = 1
	}
	return k
}

// rangeBounds splits the op index space [0, n) into K contiguous ranges
// balanced by directed-entry count, by binary search on the offset table.
func rangeBounds(off []int64, n, K int) []int {
	total := off[n]
	bounds := make([]int, K+1)
	bounds[K] = n
	for k := 1; k < K; k++ {
		target := total * int64(k) / int64(K)
		bounds[k] = sort.Search(n, func(v int) bool { return off[v] >= target })
	}
	return bounds
}

// radixCutoff is the interval count from which sortByStart switches from
// the comparison sort to the radix sort. In BenchmarkIntervalSort (2-core
// x86-64, Go 1.24) the two tie at 64 random starts; radix is 1.8x faster
// at 128 and 7x faster at 16k, and 1.8x slower at 32, where clearing its
// histograms dominates.
const radixCutoff = 64

// sortScratch holds one worker's radix-sort buffers, grown to the largest
// file it has sorted and reused for the next.
type sortScratch struct {
	keys, keys2 []uint64
	idx2        []int32
}

// sortScratchBytes is the radix scratch for sorting m intervals: two key
// arrays and one index array.
func sortScratchBytes(m int) int64 { return int64(m) * (8 + 8 + 4) }

// sortByStart orders a file's interval index w by (Start, op index). w
// arrives ascending by op index — (rank, seq) order, since Ops is
// rank-major — so a stable sort on Start alone yields exactly that order.
// From radixCutoff intervals on it is a stable LSD radix sort over the
// eight bytes of the start offset, with the sign bit flipped so negative
// offsets order before positive ones; bytes on which every key agrees are
// skipped.
func sortByStart(ops []Op, w []int32, sc *sortScratch) {
	if len(w) < radixCutoff {
		slices.SortFunc(w, func(a, b int32) int {
			if c := cmp.Compare(ops[a].Start, ops[b].Start); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		return
	}
	radixSortByStart(ops, w, sc)
}

func radixSortByStart(ops []Op, w []int32, sc *sortScratch) {
	n := len(w)
	if cap(sc.keys) < n {
		sc.keys, sc.keys2, sc.idx2 = make([]uint64, n), make([]uint64, n), make([]int32, n)
	}
	keys, keys2, idx2 := sc.keys[:n], sc.keys2[:n], sc.idx2[:n]
	var counts [8][256]int
	for i, v := range w {
		k := uint64(ops[v].Start) ^ 1<<63
		keys[i] = k
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	src, dst, si, di := keys, keys2, w, idx2
	for d := range counts {
		c := &counts[d]
		if c[byte(src[0]>>(8*d))] == n {
			continue // every key has this byte
		}
		sum := 0
		for b := range c {
			c[b], sum = sum, sum+c[b]
		}
		for i, k := range src {
			b := byte(k >> (8 * d))
			dst[c[b]] = k
			di[c[b]] = si[i]
			c[b]++
		}
		src, dst, si, di = dst, src, di, si
	}
	if &si[0] != &w[0] {
		copy(w, si)
	}
}

// detectPairs runs the sort-and-sweep over per-file interval lists (the
// paper's conflict_detection pseudocode) and builds the conflict groups
// without ever materializing a pair list.
//
// Parallel structure: after the per-file start-offset sort, each file's
// interval list is partitioned into contiguous slices sized by op count
// (sliceFile), so the sweep scales within a single shared file — the
// canonical N-ranks-to-one-file HPC pattern — not just across files. The
// sweep runs twice over the (file, slice) tasks: a counting pass
// accumulates per-op conflict degrees, a prefix sum turns them into offsets
// into the Result-wide ys arena, and a fill pass writes both directed
// endpoints of each pair into a scratch adjacency. A counting transpose
// then walks ops in ascending index order and scatters each into its
// partners' final buckets, which lands every group's ys ascending — the CSR
// layout the old path obtained from materializing 2P pairRecs and a global
// O(P log P) sort — and the per-rank runs fall out of one rank-monotone
// walk. Groups emerge already sorted by X. Every output byte is a function
// of the trace alone: the Result is identical at every worker count.
func detectPairs(res *Result, workers int, oc obs.Ctx) {
	sc, sweepSpan := oc.Start("sweep", obs.Int("files", len(res.Files)))
	defer sweepSpan.End()

	ops := res.Ops
	n := len(ops)
	nfiles := len(res.Files)
	publish := func(slicesN int, carryOps, scratchBytes int64) {
		if r := oc.R; r != nil {
			r.Gauge("conflict.sweep_slices").Set(int64(slicesN))
			r.Gauge("conflict.sweep_carry_ops").Set(carryOps)
			r.Gauge("conflict.sweep_scratch_bytes").Set(scratchBytes)
		}
	}
	if n == 0 || nfiles == 0 {
		publish(0, 0, 0)
		return
	}

	// Per-file interval index arena, built by counting so the partition
	// costs two passes and three allocations however many files there are.
	fileOff := make([]int32, nfiles+1)
	for i := range ops {
		fileOff[ops[i].FID+1]++
	}
	for f := 0; f < nfiles; f++ {
		fileOff[f+1] += fileOff[f]
	}
	idx := make([]int32, n)
	next := append([]int32(nil), fileOff[:nfiles]...)
	for i := range ops {
		f := ops[i].FID
		idx[next[f]] = int32(i)
		next[f]++
	}

	taskOff := make([]int32, nfiles+1)
	for f := 0; f < nfiles; f++ {
		taskOff[f+1] = taskOff[f] + int32(numSlices(int(fileOff[f+1]-fileOff[f])))
	}
	tasks := make([]sweepSlice, taskOff[nfiles])

	sortCtx, sortSpan := sc.Start("sweep-sort", obs.Int("tasks", len(tasks)))
	// One radix scratch per concurrently running sort, reused across files.
	// At most min(workers, nfiles) sorts run at once, so taking a scratch
	// never blocks.
	pool := make(chan *sortScratch, min(par.Resolve(workers), nfiles))
	for range cap(pool) {
		pool <- &sortScratch{}
	}
	par.DoObs(sortCtx, "detect-sort", workers, nfiles, func(f int) {
		w := idx[fileOff[f]:fileOff[f+1]]
		if len(w) == 0 {
			return
		}
		scratch := <-pool
		sortByStart(ops, w, scratch)
		pool <- scratch
		sliceFile(ops, w, f, tasks[taskOff[f]:taskOff[f+1]])
	})
	maxRadix := 0
	for f := 0; f < nfiles; f++ {
		if m := int(fileOff[f+1] - fileOff[f]); m >= radixCutoff && m > maxRadix {
			maxRadix = m
		}
	}
	if r := oc.R; r != nil {
		r.Gauge("conflict.sort_scratch_bytes").Set(sortScratchBytes(maxRadix))
	}
	sortSpan.End()

	var carryOps int64
	for i := range tasks {
		carryOps += int64(len(tasks[i].carry))
	}

	deg := make([]int32, n)
	taskPairs := make([]int64, len(tasks))
	countCtx, countSpan := sc.Start("sweep-count", obs.Int("slices", len(tasks)))
	par.DoObs(countCtx, "detect-sweep", workers, len(tasks), func(ti int) {
		t := &tasks[ti]
		w := idx[fileOff[t.fid]:fileOff[t.fid+1]]
		// Single-op files cannot conflict; skip their spans so traces on
		// wide file sets stay readable. The Enabled guard keeps the lane
		// name and attrs from being built on uninstrumented runs.
		if len(w) > 1 && countCtx.Enabled() {
			_, sp := countCtx.StartLane(t.lane(), "sweep-slice",
				obs.Int("fid", int(t.fid)), obs.Int("ops", int(t.hi-t.lo)),
				obs.Int("carry", len(t.carry)))
			defer sp.End()
		}
		taskPairs[ti] = t.count(ops, w, deg)
	})
	countSpan.End()
	for _, p := range taskPairs {
		res.Pairs += p
	}

	off := make([]int64, n+1)
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + int64(deg[i])
	}
	total := off[n]

	// The transient footprint of the sweep: index + slice plan + degree /
	// offset / cursor tables + the scratch adjacency and transpose
	// histograms. The output arenas (ys, runs, groups) are retained and
	// excluded. CI gates this against the pair count.
	scratchBytes := 4*int64(n) /* idx */ + 4*int64(nfiles+1) /* fileOff */ +
		4*carryOps + 4*int64(n) /* deg */ + 8*int64(n+1) /* off */
	if total == 0 {
		publish(len(tasks), carryOps, scratchBytes)
		return
	}

	cur := make([]int64, n)
	copy(cur, off[:n])
	adj := make([]int32, total)
	fillCtx, fillSpan := sc.Start("sweep-fill", obs.Int("entries", int(total)))
	par.DoObs(fillCtx, "detect-fill", workers, len(tasks), func(ti int) {
		t := &tasks[ti]
		w := idx[fileOff[t.fid]:fileOff[t.fid+1]]
		if len(w) > 1 && fillCtx.Enabled() {
			_, sp := fillCtx.StartLane(t.lane(), "fill-slice", obs.Int("fid", int(t.fid)))
			defer sp.End()
		}
		t.fill(ops, w, cur, adj)
	})
	fillSpan.End()

	// Counting transpose into the final ys arena, over K op ranges balanced
	// by directed-entry count. Range k histograms its share of the scratch
	// adjacency, an exclusive scan across ranges turns the histograms into
	// per-range starting positions inside each destination bucket, and the
	// scatter writes every op v (ascending within each range, ranges
	// covering ascending v) into its partners' buckets — so each bucket
	// comes out ascending and every write lands at a position that depends
	// only on the adjacency, not on scheduling.
	K := transposeRanges(workers, n)
	bounds := rangeBounds(off, n, K)
	ys := make([]int32, total)
	hist := make([]int32, K*n)
	compactCtx, compactSpan := sc.Start("sweep-compact", obs.Int("ranges", K))
	par.DoObs(compactCtx, "detect-compact", workers, K, func(k int) {
		h := hist[k*n : (k+1)*n]
		for v := bounds[k]; v < bounds[k+1]; v++ {
			for p := off[v]; p < off[v+1]; p++ {
				h[adj[p]]++
			}
		}
	})
	for u := 0; u < n; u++ {
		run := int32(0)
		for k := 0; k < K; k++ {
			hist[k*n+u], run = run, run+hist[k*n+u]
		}
	}
	par.DoObs(compactCtx, "detect-compact", workers, K, func(k int) {
		h := hist[k*n : (k+1)*n]
		for v := bounds[k]; v < bounds[k+1]; v++ {
			for p := off[v]; p < off[v+1]; p++ {
				u := adj[p]
				ys[off[u]+int64(h[u])] = int32(v)
				h[u]++
			}
		}
	})
	compactSpan.End()

	// Build groups and per-rank runs over the same op ranges: a counting
	// pass sizes the runs arena exactly, a prefix sum places each range,
	// and the fill writes group-relative run offsets in one rank-monotone
	// walk per group. Ops with nonzero degree ascend, so the group list is
	// born sorted by X.
	rankOf := make([]int32, n)
	for i := range ops {
		rankOf[i] = int32(ops[i].Ref.Rank)
	}
	ngr := make([]int64, K+1)
	nrn := make([]int64, K+1)
	groupsCtx, groupsSpan := sc.Start("sweep-groups")
	par.DoObs(groupsCtx, "detect-groups", workers, K, func(k int) {
		var g, rn int64
		for v := bounds[k]; v < bounds[k+1]; v++ {
			lo, hi := off[v], off[v+1]
			if lo == hi {
				continue
			}
			g++
			runs := int64(1)
			prev := rankOf[ys[lo]]
			for p := lo + 1; p < hi; p++ {
				if r := rankOf[ys[p]]; r != prev {
					runs++
					prev = r
				}
			}
			rn += runs + 1
		}
		ngr[k+1], nrn[k+1] = g, rn
	})
	for k := 0; k < K; k++ {
		ngr[k+1] += ngr[k]
		nrn[k+1] += nrn[k]
	}
	groups := make([]Group, ngr[K])
	runsArena := make([]int32, nrn[K])
	par.DoObs(groupsCtx, "detect-groups", workers, K, func(k int) {
		gi, rp := ngr[k], nrn[k]
		for v := bounds[k]; v < bounds[k+1]; v++ {
			lo, hi := off[v], off[v+1]
			if lo == hi {
				continue
			}
			rlo := rp
			prev := int32(-1)
			for p := lo; p < hi; p++ {
				if r := rankOf[ys[p]]; r != prev {
					runsArena[rp] = int32(p - lo) // run offsets are group-relative
					rp++
					prev = r
				}
			}
			runsArena[rp] = int32(hi - lo)
			rp++
			groups[gi] = Group{X: v, ys: ys[lo:hi:hi], runs: runsArena[rlo:rp:rp]}
			gi++
		}
	})
	groupsSpan.End()
	res.Groups = groups

	scratchBytes += 8*int64(n) /* cur */ + 4*total /* adj */ +
		4*int64(K)*int64(n) /* hist */ + 4*int64(n) /* rankOf */
	publish(len(tasks), carryOps, scratchBytes)
}
