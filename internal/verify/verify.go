package verify

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"verifyio/internal/conflict"
	"verifyio/internal/hbgraph"
	"verifyio/internal/match"
	"verifyio/internal/obs"
	"verifyio/internal/semantics"
	"verifyio/internal/trace"
	"verifyio/internal/vcache"
)

// Options controls a verification pass.
type Options struct {
	// Model is the consistency model to verify against.
	Model semantics.Model
	// Algo selects the happens-before algorithm (Run only; Analysis
	// carries its own).
	Algo Algo
	// DisablePruning turns the Fig. 3 group pruning off (ablation).
	DisablePruning bool
	// MaxRaceDetails caps how many races carry full call-chain detail;
	// counting is always exact. 0 means the default (256).
	MaxRaceDetails int
	// ContinueOnUnmatched verifies even when the matcher reported
	// problems. By default, unmatched MPI calls abort verification —
	// the gray rows of Fig. 4.
	ContinueOnUnmatched bool
	// DisableFastPaths forces every properly-synchronized check through
	// the generic MSC search instead of the Table I shape fast paths
	// (cross-validation and custom-model testing).
	DisableFastPaths bool
	// Workers is the number of goroutines used to verify conflict groups
	// (and, in VerifyAll, to run models concurrently). 0 means
	// GOMAXPROCS; 1 keeps the serial path. Results are independent of the
	// worker count.
	Workers int
	// Cache attaches a verdict store: every chunk of the verification plan
	// is looked up by content digest before being verified and sealed into
	// the store after. Reports gain Cache statistics. Nil disables caching.
	Cache *vcache.Store
	// CacheID names the logical trace for the incremental manifest the
	// cache keeps (e.g. the trace directory path). Empty derives a stable
	// identity from the trace content. Only meaningful with Cache set.
	CacheID string
	// Obs carries telemetry sinks; the zero Ctx disables instrumentation.
	// When a registry is attached, Report.Metrics carries its snapshot.
	Obs obs.Ctx
}

// Race is one data race (Def. 7): a conflicting pair with no
// properly-synchronized order in either direction.
type Race struct {
	X, Y  conflict.Op
	File  string
	FuncX string
	FuncY string
	// ChainX/ChainY are the call chains (outermost first, the operation
	// itself last) — what the paper uses to attribute a race to the
	// application or to a library layer.
	ChainX, ChainY []string
}

// Level classifies where a race originates, from its call chains: the
// outermost frame of the deeper chain tells which layer issued the
// conflicting operation.
func (r Race) Level() string {
	pick := func(chain []string) string {
		if len(chain) <= 1 {
			return "application"
		}
		fr, err := trace.ParseFrame(chain[0])
		if err != nil {
			return "application"
		}
		return fr.Layer.String()
	}
	lx, ly := pick(r.ChainX), pick(r.ChainY)
	if lx == ly {
		return lx
	}
	return lx + "+" + ly
}

// Report is the outcome of verifying one trace against one model.
type Report struct {
	Model     string
	Algorithm string
	Ranks     int
	Records   int

	// ConflictPairs is the step-2 conflict count (model independent).
	ConflictPairs int64
	// RaceCount is the number of data races under the model.
	RaceCount int64
	// Races carries detail for up to MaxRaceDetails races.
	Races []Race
	// Problems are the matcher's unmatched/mismatched MPI calls.
	Problems []match.Problem
	// Verified is false when unmatched MPI calls prevented verification
	// (gray rows in Fig. 4).
	Verified bool
	// ProperlySynchronized is Verified && RaceCount == 0 (green rows).
	ProperlySynchronized bool

	// ChecksPerformed counts properly-synchronized evaluations — the
	// quantity the Fig. 3 pruning reduces.
	ChecksPerformed int64
	// Workers is the worker count the verification stage actually ran
	// with (after the GOMAXPROCS default is resolved).
	Workers        int
	GraphNodes     int
	GraphSyncEdges int
	// SkeletonNodes / SkeletonLevels describe the sync skeleton the
	// graph-based oracles computed on: S nodes (sync-edge endpoints plus
	// per-rank sentinels, S ≤ GraphNodes) scheduled across the given number
	// of wavefront levels. Zero when the on-the-fly algorithm ran.
	SkeletonNodes  int
	SkeletonLevels int
	Timing         Timing
	// Cache reports verdict-cache effectiveness for this pass. Nil unless
	// Options.Cache was set — so cacheless reports are byte-identical to
	// those of builds that predate the cache.
	Cache *CacheStats `json:",omitempty"`
	// Metrics is the telemetry registry snapshot taken when this report
	// was built. Nil unless Options.Obs carried a registry.
	Metrics *obs.Snapshot `json:",omitempty"`
}

// Run performs the whole pipeline (steps 2–4) on a trace for one model.
func Run(tr *trace.Trace, opts Options) (*Report, error) {
	a, err := AnalyzeOpts(tr, opts.Algo, AnalyzeOptions{Workers: opts.Workers, Obs: opts.Obs})
	if err != nil {
		return nil, err
	}
	return a.Verify(opts)
}

// Verify checks every conflict of the analysis under opts.Model.
func (a *Analysis) Verify(opts Options) (*Report, error) {
	p, err := a.verifyPass(opts)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := a.prefetchRecords(p.raceRefs(nil), p.opts); err != nil {
		return nil, err
	}
	return p.report(time.Since(start)), nil
}

// modelPass is one model's verification up to its race details: the
// verdicts are final, the raced pairs known, their records not yet
// fetched. Splitting there lets VerifyAll fetch every model's raced
// records from a streamed trace in one re-decode.
type modelPass struct {
	opts    Options
	rep     *Report
	v       *verifier     // nil when verification did not run
	elapsed time.Duration // the pass's own verification time
}

// raceRefs appends the records the pass's race details need from a
// streamed trace (a materialized analysis has them all).
func (p *modelPass) raceRefs(refs []trace.Ref) []trace.Ref {
	if p.v == nil || p.v.a.Trace != nil {
		return refs
	}
	for _, rp := range p.v.pairs {
		refs = append(refs, rp.x.Ref, rp.y.Ref)
	}
	return refs
}

// report materializes the race details (their records must be fetched, in
// fetch time) and completes the report.
func (p *modelPass) report(fetch time.Duration) *Report {
	rep, v, opts := p.rep, p.v, p.opts
	if v == nil {
		rep.Metrics = opts.Obs.R.Snapshot()
		return rep
	}
	a := v.a
	start := time.Now()
	for _, rp := range v.pairs {
		rep.Races = append(rep.Races, v.makeRace(rp))
	}
	rep.ChecksPerformed = v.checks
	rep.Timing.Verification = p.elapsed + fetch + time.Since(start)
	rep.Verified = true
	rep.ProperlySynchronized = rep.RaceCount == 0
	sort.Slice(rep.Races, func(i, j int) bool {
		if rep.Races[i].X.Ref != rep.Races[j].X.Ref {
			return rep.Races[i].X.Ref.Less(rep.Races[j].X.Ref)
		}
		return rep.Races[i].Y.Ref.Less(rep.Races[j].Y.Ref)
	})
	if r := opts.Obs.R; r != nil {
		r.Counter("verify.groups").Add(int64(len(a.Conflicts.Groups)))
		r.Counter("verify.checks").Add(v.checks)
		r.Counter("verify.races").Add(v.raceCount)
		// Oracle pressure, split out of verify.checks: hb_queries counts
		// happens-before evaluations actually performed (cache-served chunks
		// perform none; per-group memo hits re-use earlier evaluations),
		// hb_fast_hits the subset answered by the O(1) resolved segment
		// probe, hb_fallbacks the subset that took the general Oracle.HB
		// path. All three are deterministic at any fixed worker count.
		r.Counter("verify.hb_queries").Add(v.hbQueries)
		r.Counter("verify.hb_fast_hits").Add(v.hbFast)
		r.Counter("verify.hb_fallbacks").Add(v.hbFall)
		// The memo hit/miss split under concurrent queries is
		// scheduling-dependent; Set (not Add) keeps re-snapshotting after
		// several model passes idempotent — the gauge always holds the
		// oracle's cumulative totals.
		if bfs, ok := a.Oracle.(*hbgraph.BFSOracle); ok {
			hits, misses := bfs.MemoStats()
			r.GaugeS("hb.memo_hits", obs.Volatile).Set(hits)
			r.GaugeS("hb.memo_misses", obs.Volatile).Set(misses)
		}
		if opts.Cache != nil {
			// Volatile: the values depend on cross-run cache state, the
			// quantity the CI warm gate asserts on. Set (not Add) for the
			// same idempotence reason as the memo gauges above — the store
			// carries the cumulative totals across model passes.
			hits, misses, dirty := opts.Cache.Stats()
			r.GaugeS("vcache.hits", obs.Volatile).Set(hits)
			r.GaugeS("vcache.misses", obs.Volatile).Set(misses)
			r.GaugeS("vcache.dirty_chunks", obs.Volatile).Set(dirty)
		}
		rep.Metrics = r.Snapshot()
	}
	return rep
}

// verifyPass runs one model's verification up to its race details.
func (a *Analysis) verifyPass(opts Options) (*modelPass, error) {
	if err := opts.Model.MSC.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxRaceDetails == 0 {
		opts.MaxRaceDetails = 256
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	rep := &Report{
		Model:         opts.Model.Name,
		Algorithm:     a.Algorithm.String(),
		Ranks:         a.NumRanks(),
		Records:       a.NumRecords(),
		ConflictPairs: a.Conflicts.Pairs,
		Problems:      a.Match.Problems,
		Workers:       opts.Workers,
		Timing:        a.Timing,
	}
	if a.Graph != nil {
		rep.GraphNodes = a.Graph.Nodes()
		rep.GraphSyncEdges = a.Graph.SyncEdges()
		rep.SkeletonNodes = a.Graph.SkeletonNodes()
		rep.SkeletonLevels = a.Graph.SkeletonLevels()
	}
	if len(a.Match.Problems) > 0 && !opts.ContinueOnUnmatched {
		// Unmatched MPI calls: the synchronization order cannot be
		// trusted, so verification is not performed (§V-D).
		rep.Verified = false
		return &modelPass{opts: opts, rep: rep}, nil
	}
	// Model passes run concurrently in VerifyAll, so each pass gets its own
	// lane; per-chunk shard spans fork off it below.
	oc, span := opts.Obs.StartLane("verify/"+opts.Model.Name, "verify",
		obs.String("model", opts.Model.Name), obs.String("algorithm", rep.Algorithm))
	span.SetCat("verify")
	defer span.End()

	start := time.Now()
	_, idxSpan := oc.Start("sync-index")
	plan := a.queryPlan()
	v := &verifier{a: a, opts: opts, oc: oc, idx: a.syncIndexFor(opts.Model, plan), plan: plan}
	v.initGroupState()
	idxSpan.End()
	var cs *cacheSession
	if opts.Cache != nil {
		cs = newCacheSession(a, opts, oc)
	}
	if cs != nil || (opts.Workers > 1 && len(a.Conflicts.Groups) > 1) {
		v.verifyChunks(opts.Workers, cs)
	} else {
		_, chunkSpan := oc.Start("groups", obs.Int("groups", len(a.Conflicts.Groups)))
		v.verifyGroups(0, len(a.Conflicts.Groups))
		chunkSpan.End()
	}
	if cs != nil {
		cs.finish()
		rep.Cache = cs.stats()
	}
	rep.RaceCount = v.raceCount
	return &modelPass{opts: opts, rep: rep, v: v, elapsed: time.Since(start)}, nil
}

// verifier checks conflict groups and accumulates races locally. The shared
// fields (a, opts, idx, plan) are read-only during verification, so shards
// of the parallel path copy them and write only their own accumulators and
// group-scoped scratch.
type verifier struct {
	a    *Analysis
	opts Options
	oc   obs.Ctx
	idx  *syncIndex
	plan *opPlan

	// Group-scoped state (setGroup): within one group sweep the X op and
	// the conflicting file never change, so X's resolution and the file's
	// candidate-list map lookups hoist out of the per-pair checks.
	curXi int32                   // op index of the current group's X (-1 outside a sweep)
	gFile [][]resolvedRef         // per class: candidates on the group's file
	gRank []map[int][]resolvedRef // per class: rank → candidates on the file

	// Lazily computed per-group extremes for the po-hb-po fast path: the
	// earliest class-0 candidate after X on X's rank (xS1) and the latest
	// class-(k-1) candidate before X on X's rank (xS2).
	xS1, xS2       resolvedRef
	xS1ok, xS2ok   bool
	xS1set, xS2set bool

	// Per-group witness sets for the hb-S-hb fast path. On each rank the
	// candidates reachable from X form a seq-suffix (po extends hb), so the
	// earliest reachable candidate per rank witnesses every MSC through
	// that rank; dually the latest candidate reaching X witnesses the
	// reverse direction. Each set is one binary search per rank, computed
	// on first use within a group and shared by every paired Y.
	wFrom, wTo       []resolvedRef
	wFromSet, wToSet bool
	// gRanks0/gRanksK are the group file's candidate ranks (classes 0 and
	// k-1), ascending — the witness searches' deterministic order.
	gRanks0, gRanksK []int

	// Run-scoped candidate lists (setRun): every Y of one CSR run lives on
	// one rank, so that rank's class-0 and class-(k-1) lists hoist out of
	// the binary-search probes.
	runC0, runCk []resolvedRef

	// Per-(X, candidate) edge memo, version-stamped so a group switch is
	// O(1): memoFrom caches the MSC's first edge X → candidate_j, memoTo
	// its last edge candidate_j → X. Within one group sweep those verdicts
	// recur across every paired Y.
	memoVer  int32
	memoFrom []memoCell
	memoTo   []memoCell

	// Accumulators: merged into the Report after verification. Pairs
	// carry no call-chain detail — that is materialized once, for the
	// merged prefix only, so shards never pay for details the cap will
	// drop.
	checks    int64
	hbQueries int64 // happens-before evaluations actually performed
	hbFast    int64 // …of which answered by the O(1) resolved segment probe
	hbFall    int64 // …of which answered by the general Oracle.HB path
	raceCount int64
	pairs     []racePair // first opts.MaxRaceDetails races, discovery order
}

// memoCell is one version-stamped memo slot; valid when ver matches the
// verifier's current group version.
type memoCell struct {
	ver int32
	val bool
}

// racePair is a raced conflict pair awaiting detail materialization.
type racePair struct {
	x, y *conflict.Op
}

// initGroupState sizes the group-scoped scratch to the model's MSC arity.
func (v *verifier) initGroupState() {
	k := len(v.idx.perFile)
	v.gFile = make([][]resolvedRef, k)
	v.gRank = make([]map[int][]resolvedRef, k)
	v.curXi = -1
}

// setGroup hoists the group-invariant lookups — the file's candidate lists
// per class — and invalidates the per-group memos.
func (v *verifier) setGroup(g *conflict.Group) {
	v.curXi = int32(g.X)
	fid := v.a.Conflicts.Ops[g.X].FID
	for c := range v.gFile {
		v.gFile[c] = v.idx.perFile[c][fid]
		v.gRank[c] = v.idx.perRank[c][fid]
	}
	if k := len(v.gFile); k > 0 {
		v.gRanks0 = v.idx.ranks[0][fid]
		v.gRanksK = v.idx.ranks[k-1][fid]
	}
	v.xS1set, v.xS2set = false, false
	v.wFromSet, v.wToSet = false, false
	v.memoVer++
}

// buildWFrom computes the forward witness set for the group's X: per rank,
// the earliest class-0 candidate S with X -hb-> S. X -hb-> S is monotone in
// S's sequence on each rank (X hb S and S po S' give X hb S'), so one binary
// search per rank finds the suffix boundary; the minimal element witnesses
// every MSC through that rank, because S' in the suffix with S' hb Y gives
// min po S' hb Y.
func (v *verifier) buildWFrom(xr resolvedRef) {
	v.wFrom = v.wFrom[:0]
	for _, q := range v.gRanks0 {
		cands := v.gRank[0][q]
		i := sort.Search(len(cands), func(i int) bool { return v.hbRes(xr, cands[i]) })
		if i < len(cands) {
			v.wFrom = append(v.wFrom, cands[i])
		}
	}
	v.wFromSet = true
}

// buildWTo computes the reverse witness set: per rank, the latest
// class-(k-1) candidate S with S -hb-> X. S -hb-> X holds on a seq-prefix of
// each rank, so the maximal element witnesses every MSC into X.
func (v *verifier) buildWTo(xr resolvedRef) {
	v.wTo = v.wTo[:0]
	for _, q := range v.gRanksK {
		cands := v.gRank[len(v.gRank)-1][q]
		i := sort.Search(len(cands), func(i int) bool { return !v.hbRes(cands[i], xr) })
		if i > 0 {
			v.wTo = append(v.wTo, cands[i-1])
		}
	}
	v.wToSet = true
}

// setRun hoists the run-invariant per-rank candidate lists (classes 0 and
// k-1, the ones the Table I fast paths search by rank).
func (v *verifier) setRun(rank int) {
	if k := len(v.gRank); k > 0 {
		v.runC0 = v.gRank[0][rank]
		v.runCk = v.gRank[k-1][rank]
	}
}

// ps implements Def. 6: X properly-synchronizes-before Y. xi and yi are the
// ops' indices in Conflicts.Ops — the plan's operand space.
func (v *verifier) ps(x, y *conflict.Op, xi, yi int32) bool {
	v.checks++
	if !x.Write {
		// Case 1: a read followed in happens-before order by the
		// conflicting (write) operation.
		return v.hbRes(v.plan.res[xi], v.plan.res[yi])
	}
	// Case 2: an MSC instance between X and Y.
	return v.mscExists(x, y, xi, yi)
}

// hbRes answers one happens-before query over resolved operands: program
// order for same-rank pairs, the O(1) segment probe when the plan resolved
// both operands, and the general Oracle.HB path otherwise.
func (v *verifier) hbRes(a, b resolvedRef) bool {
	v.hbQueries++
	if a.rank == b.rank {
		return a.seq < b.seq
	}
	if p := v.plan.prober; p != nil && a.next >= 0 && b.next >= 0 {
		v.hbFast++
		return p.ProbeSeg(a.rank, a.seq, a.next, b.prev)
	}
	v.hbFall++
	return v.a.Oracle.HB(trace.Ref{Rank: int(a.rank), Seq: int(a.seq)},
		trace.Ref{Rank: int(b.rank), Seq: int(b.seq)})
}

// edgeRes checks one MSC edge requirement between two resolved operands.
func (v *verifier) edgeRes(kind semantics.EdgeKind, a, b resolvedRef) bool {
	if kind == semantics.PO {
		return a.rank == b.rank && a.seq < b.seq
	}
	return v.hbRes(a, b)
}

// memoFromAt returns the memoized verdict of the MSC's first edge
// X → candidate_j, computing it on first use within the current group.
func (v *verifier) memoFromAt(j int, kind semantics.EdgeKind, x, cand resolvedRef) bool {
	if j >= len(v.memoFrom) {
		v.memoFrom = append(v.memoFrom, make([]memoCell, j+1-len(v.memoFrom))...)
	}
	c := &v.memoFrom[j]
	if c.ver != v.memoVer {
		c.ver = v.memoVer
		c.val = v.edgeRes(kind, x, cand)
	}
	return c.val
}

// memoToAt returns the memoized verdict of the MSC's last edge
// candidate_j → X, computing it on first use within the current group.
func (v *verifier) memoToAt(j int, kind semantics.EdgeKind, cand, x resolvedRef) bool {
	if j >= len(v.memoTo) {
		v.memoTo = append(v.memoTo, make([]memoCell, j+1-len(v.memoTo))...)
	}
	c := &v.memoTo[j]
	if c.ver != v.memoVer {
		c.ver = v.memoVer
		c.val = v.edgeRes(kind, cand, x)
	}
	return c.val
}

// mscExists searches for an instance of the model's MSC between x and y,
// with every synchronization operation acting on the conflicting file.
func (v *verifier) mscExists(x, y *conflict.Op, xi, yi int32) bool {
	msc := v.opts.Model.MSC
	k := msc.K()
	xr, yr := v.plan.res[xi], v.plan.res[yi]
	if k == 0 {
		// POSIX: -hb->
		return v.edgeRes(msc.Edges[0], xr, yr)
	}
	if v.opts.DisableFastPaths {
		return v.mscDFS(msc, 0, xr, xi, yi, yr)
	}
	// Fast path for the Table I shapes.
	switch {
	case k == 1 && msc.Edges[0] == semantics.HB && msc.Edges[1] == semantics.HB:
		// -hb-> S -hb-> : any sync op on the file with X hb S hb Y. The
		// group sweep always anchors one endpoint at the group's X, whose
		// per-rank extreme witnesses cover every candidate (see buildWFrom/
		// buildWTo) — each pair then costs at most one probe per rank
		// instead of a scan of the candidate list.
		if xi == v.curXi {
			if !v.wFromSet {
				v.buildWFrom(xr)
			}
			for _, w := range v.wFrom {
				if v.hbRes(w, yr) {
					return true
				}
			}
			return false
		}
		if yi == v.curXi {
			if !v.wToSet {
				v.buildWTo(yr)
			}
			for _, w := range v.wTo {
				if v.hbRes(xr, w) {
					return true
				}
			}
			return false
		}
		// Neither endpoint is the sweeping group's X (not reachable from
		// verifyGroups; kept for call-site safety): plain candidate scan.
		for _, cand := range v.gFile[0] {
			if v.hbRes(xr, cand) && v.hbRes(cand, yr) {
				return true
			}
		}
		return false
	case k == 2 && msc.Edges[0] == semantics.PO && msc.Edges[1] == semantics.HB && msc.Edges[2] == semantics.PO:
		// -po-> S1 -hb-> S2 -po-> : the earliest S1 after X on X's rank
		// and the latest S2 before Y on Y's rank suffice — if ANY
		// (S1', S2') pair works then this extreme pair works too,
		// because S1 -po-> S1' and S2' -po-> S2 extend the hb path.
		// Whichever endpoint is the group's X resolves its extreme once per
		// group; the other endpoint is a run Y, whose rank's candidate
		// lists are run-hoisted.
		var s1 resolvedRef
		var ok bool
		if xi == v.curXi {
			if !v.xS1set {
				v.xS1, v.xS1ok = firstAfterRes(v.gRank[0][int(xr.rank)], xr.seq)
				v.xS1set = true
			}
			s1, ok = v.xS1, v.xS1ok
		} else {
			s1, ok = firstAfterRes(v.runC0, xr.seq)
		}
		if !ok {
			return false
		}
		var s2 resolvedRef
		if yi == v.curXi {
			if !v.xS2set {
				v.xS2, v.xS2ok = lastBeforeRes(v.gRank[1][int(yr.rank)], yr.seq)
				v.xS2set = true
			}
			s2, ok = v.xS2, v.xS2ok
		} else {
			s2, ok = lastBeforeRes(v.runCk, yr.seq)
		}
		if !ok {
			return false
		}
		return v.hbRes(s1, s2)
	}
	// Generic DFS for custom models.
	return v.mscDFS(msc, 0, xr, xi, yi, yr)
}

// mscDFS anchors MSC element pos (0-based sync-op position) given the
// previously anchored operand. The first- and last-edge verdicts touching
// the group's X share the fast paths' per-group memos.
func (v *verifier) mscDFS(msc semantics.MSC, pos int, prev resolvedRef, xi, yi int32, yr resolvedRef) bool {
	k := msc.K()
	if pos == k {
		return v.edgeRes(msc.Edges[k], prev, yr)
	}
	cands := v.gFile[pos]
	useFrom := pos == 0 && xi == v.curXi
	useTo := pos == k-1 && yi == v.curXi
	for j := range cands {
		var ok bool
		if useFrom {
			ok = v.memoFromAt(j, msc.Edges[0], prev, cands[j])
		} else {
			ok = v.edgeRes(msc.Edges[pos], prev, cands[j])
		}
		if !ok {
			continue
		}
		if useTo {
			if v.memoToAt(j, msc.Edges[k], cands[j], yr) {
				return true
			}
			continue
		}
		if v.mscDFS(msc, pos+1, cands[j], xi, yi, yr) {
			return true
		}
	}
	return false
}

// verifyGroups walks the conflict groups in [lo, hi) and collects races.
// Each unordered pair appears in two mirrored groups; it is recorded only
// from the group whose X precedes Y in (rank, seq) order, so counting is
// exact. Groups are independent of each other, which is what makes the
// range a unit of parallel work.
func (v *verifier) verifyGroups(lo, hi int) {
	ops := v.a.Conflicts.Ops
	for gi := lo; gi < hi; gi++ {
		g := &v.a.Conflicts.Groups[gi]
		v.setGroup(g)
		x, xi := &ops[g.X], int32(g.X)
		// CSR runs are already ordered by ascending rank, each run in
		// program order — the walk the map-of-slices layout needed a
		// per-group rank sort to produce.
		for k := 0; k < g.NumRuns(); k++ {
			ys := g.RunAt(k)
			v.setRun(ops[ys[0]].Ref.Rank)
			if v.opts.DisablePruning {
				for _, yi := range ys {
					y := &ops[yi]
					if !v.ps(x, y, xi, yi) && !v.ps(y, x, yi, xi) {
						v.recordRace(x, y)
					}
				}
				continue
			}
			v.verifyRun(x, xi, ys)
		}
	}
}

// verifyRun applies the Fig. 3 pruning to one (X, ζ_r) run, generalized to
// a pair of binary searches over the two monotone predicates:
//
//   - X ps Y_i is monotone non-decreasing in i (rules 1 and 3): an MSC to
//     Y_i extends to any later Y_j by program order.
//   - Y_i ps X is monotone non-increasing in i (rules 2 and 4): an MSC
//     from Y_i restricts to any earlier Y_j.
//
// (The paper states rule 4 with Y_n; the sound monotone form anchors the
// negative direction at Y_1 — checking Y_1 clears or dooms the whole run.)
// Each of the paper's four scenarios is the degenerate case where a search
// terminates after one probe; in general the run costs O(log n) checks
// instead of n.
func (v *verifier) verifyRun(x *conflict.Op, xi int32, ys []int32) {
	ops := v.a.Conflicts.Ops
	n := len(ys)
	// iF: first index with X ps Y_i (n when none).
	iF := sort.Search(n, func(i int) bool { return v.ps(x, &ops[ys[i]], xi, ys[i]) })
	// iG: first index where Y_i ps X stops holding; indices < iG hold.
	iG := sort.Search(n, func(i int) bool { return !v.ps(&ops[ys[i]], x, ys[i], xi) })
	// Pairs in [iG, iF) are synchronized in neither direction.
	for i := iG; i < iF; i++ {
		v.recordRace(x, &ops[ys[i]])
	}
}

// verifyChunks runs the chunk plan — the shared unit of parallel work and
// of verdict caching. With workers > 1, workers claim chunks from an atomic
// cursor; the per-chunk verifiers are then merged in chunk order = group
// order, so the detailed-race prefix, the race count and the check count
// are exactly what the serial walk produces, at every worker count and for
// any mix of cached and recomputed chunks. A non-nil cs resolves chunks
// from the verdict cache first and seals fresh verdicts after.
func (v *verifier) verifyChunks(workers int, cs *cacheSession) {
	plan := planChunks(v.a.Conflicts)
	if cs != nil {
		plan = cs.art.plan // identical by construction; reuse the memo
	}
	nchunks := len(plan)
	shards := make([]verifier, nchunks)
	work := func(c int) {
		sh := &shards[c]
		sh.a, sh.opts, sh.idx, sh.plan = v.a, v.opts, v.idx, v.plan
		sh.initGroupState()
		if cs != nil && cs.tryApply(c, sh) {
			return
		}
		span := plan[c]
		_, sp := v.oc.StartLane(
			"verify/"+v.opts.Model.Name+"/chunk-"+fmt.Sprint(c),
			"chunk", obs.Int("chunk", c), obs.Int("groups", span.hi-span.lo))
		sh.verifyGroups(span.lo, span.hi)
		sp.End()
		if cs != nil {
			cs.seal(c, sh)
		}
	}
	if workers <= 1 || nchunks <= 1 {
		for c := 0; c < nchunks; c++ {
			work(c)
		}
	} else {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					c := int(cursor.Add(1)) - 1
					if c >= nchunks {
						return
					}
					work(c)
				}
			}()
		}
		wg.Wait()
	}
	// Merge in chunk order = group order: each shard capped its detail at
	// MaxRaceDetails, which is enough because the global detail prefix
	// draws at most that many races from any shard's own prefix.
	for c := range shards {
		sh := &shards[c]
		v.checks += sh.checks
		v.hbQueries += sh.hbQueries
		v.hbFast += sh.hbFast
		v.hbFall += sh.hbFall
		v.raceCount += sh.raceCount
		for i := range sh.pairs {
			if len(v.pairs) >= v.opts.MaxRaceDetails {
				break
			}
			v.pairs = append(v.pairs, sh.pairs[i])
		}
	}
}

func (v *verifier) recordRace(x, y *conflict.Op) {
	// Mirrored groups: record each unordered pair once.
	if !x.Ref.Less(y.Ref) {
		return
	}
	v.raceCount++
	if len(v.pairs) >= v.opts.MaxRaceDetails {
		return
	}
	v.pairs = append(v.pairs, racePair{x: x, y: y})
}

// makeRace materializes the reported detail (paths, call chains) for one
// raced pair.
func (v *verifier) makeRace(p racePair) Race {
	rx := v.a.record(p.x.Ref)
	ry := v.a.record(p.y.Ref)
	return Race{
		X: *p.x, Y: *p.y,
		File:   v.a.Conflicts.PathOf(p.x.FID),
		FuncX:  rx.Func,
		FuncY:  ry.Func,
		ChainX: fullChain(rx),
		ChainY: fullChain(ry),
	}
}

// fullChain returns the call chain with the operation itself appended.
func fullChain(rec *trace.Record) []string {
	out := make([]string, 0, len(rec.Chain)+1)
	out = append(out, rec.Chain...)
	out = append(out, trace.FormatFrame(rec.Layer, rec.Func, rec.Site))
	return out
}

// VerifyAll verifies the analysis against every given model, reusing the
// shared steps. With Workers != 1 the models run concurrently: the oracle
// is read-only after construction and safe for concurrent queries, and each
// model pass builds its own syncIndex. A streamed analysis then fetches
// every model's raced records in one re-decode. Report order always follows
// the models argument.
func (a *Analysis) VerifyAll(models []semantics.Model, opts Options) ([]*Report, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	passes := make([]*modelPass, len(models))
	errs := make([]error, len(models))
	run := func(i int) {
		o := opts
		o.Model = models[i]
		passes[i], errs[i] = a.verifyPass(o)
	}
	if workers == 1 || len(models) == 1 {
		for i := range models {
			run(i)
		}
	} else {
		var wg sync.WaitGroup
		for i := range models {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(i)
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("verify: model %s: %w", models[i].Name, err)
		}
	}
	var refs []trace.Ref
	for _, p := range passes {
		refs = p.raceRefs(refs)
	}
	start := time.Now()
	if len(passes) > 0 {
		if err := a.prefetchRecords(refs, passes[0].opts); err != nil {
			return nil, err
		}
	}
	fetch := time.Since(start)
	out := make([]*Report, len(models))
	for i, p := range passes {
		out[i] = p.report(fetch)
	}
	return out, nil
}
