// Package verify implements step 4 of the VerifyIO workflow: deciding
// whether every detected conflict is properly synchronized (Def. 6) under a
// chosen consistency model, and reporting data races (Def. 7) with full call
// chains.
//
// The expensive, model-independent work — conflict detection, MPI matching,
// happens-before construction — is factored into Analyze, so one Analysis
// can be verified against all four models (how the evaluation produces one
// Fig. 4 row across four columns from a single trace).
package verify

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"verifyio/internal/conflict"
	"verifyio/internal/hbgraph"
	"verifyio/internal/match"
	"verifyio/internal/obs"
	"verifyio/internal/par"
	"verifyio/internal/trace"
)

// Algo selects the happens-before algorithm (§IV-D).
type Algo int

// Algorithms.
const (
	// AlgoAuto picks dynamically from the conflict count and graph size —
	// the paper's future-work "dynamic selection of the verification
	// algorithm".
	AlgoAuto Algo = iota
	AlgoVectorClock
	AlgoReachability
	AlgoTransitiveClosure
	AlgoOnTheFly
	// AlgoSegment precomputes the dense segment×segment reachability matrix
	// of the sync skeleton — O(1) bit-probe queries; falls back to vector
	// clocks when the matrix exceeds its byte budget.
	AlgoSegment
)

var algoNames = map[Algo]string{
	AlgoAuto:              "auto",
	AlgoVectorClock:       "vector-clock",
	AlgoReachability:      "reachability",
	AlgoTransitiveClosure: "transitive-closure",
	AlgoOnTheFly:          "on-the-fly",
	AlgoSegment:           "segment",
}

func (a Algo) String() string {
	if s, ok := algoNames[a]; ok {
		return s
	}
	return fmt.Sprintf("algo(%d)", int(a))
}

// AlgoByName resolves an algorithm name.
func AlgoByName(name string) (Algo, error) {
	for a, n := range algoNames {
		if n == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("verify: unknown algorithm %q (have auto, vector-clock, reachability, transitive-closure, on-the-fly, segment)", name)
}

// Timing is the per-stage breakdown Table IV reports. It has one meaning in
// both ingestion modes: every stage field is that stage's busy time — the
// sum over ranks of its per-rank work, plus its cross-rank finish — so with
// Workers != 1 a stage can report more time than elapsed while it ran. The
// "Wall"-suffixed fields are elapsed time.
type Timing struct {
	// ReadTrace is decode busy time. A streamed analysis sums the time each
	// rank spent decoding its batches; on a materialized trace it is set by
	// the caller that loaded it (zero otherwise).
	ReadTrace time.Duration
	// DetectConflicts covers step 2: every rank's metadata replay plus the
	// cross-rank merge and pair sweep.
	DetectConflicts time.Duration
	// Match covers step 3: every rank's MPI scan plus the cross-rank
	// collective and point-to-point matching.
	Match time.Duration
	// BuildGraph covers happens-before graph construction.
	BuildGraph time.Duration
	// VectorClock covers clock generation (zero for other algorithms).
	VectorClock time.Duration
	// Verification covers the per-model conflict checking.
	Verification time.Duration

	// Elapsed-time fields. Every field whose name ends in "Wall" measures
	// elapsed time across stages that (can) run concurrently, so it overlaps
	// the busy-time fields above and MUST be excluded from Total — adding
	// one to the sum would double-report. The naming convention is enforced
	// by the reflection pin test in timing_test.go: a new overlap field is
	// excluded automatically by its suffix, and a new per-stage field fails
	// the test until Total is updated.

	// DetectMatchWall is the elapsed time of the per-rank pass (decode when
	// streaming, replay, scan) and the two cross-rank finishes. Serially it
	// is at least DetectConflicts + Match; with Workers != 1 the ranks run
	// concurrently and it can be less.
	DetectMatchWall time.Duration
	// AnalyzeWall is the elapsed time of the whole analysis call (steps 2–3
	// plus happens-before construction; opening the stream when streaming).
	AnalyzeWall time.Duration
}

// Total sums the per-stage busy times. Elapsed-time fields ("Wall"-suffixed)
// are intentionally excluded: they re-measure spans of the same stages and
// would double-report.
func (t Timing) Total() time.Duration {
	return t.ReadTrace + t.DetectConflicts + t.Match + t.BuildGraph + t.VectorClock + t.Verification
}

// Analysis is the model-independent part of a verification run.
type Analysis struct {
	Conflicts *conflict.Result
	Match     *match.Result
	Oracle    hbgraph.Oracle
	// Graph is nil when the on-the-fly algorithm was selected.
	Graph *hbgraph.Graph
	// Algorithm is the algorithm actually used (after auto selection).
	Algorithm Algo
	// Timing holds the stage durations accumulated so far.
	Timing Timing

	// counts are the per-rank record counts — the positional facts reports
	// and cache manifests need.
	counts []int
	// salvage is the decode salvage state of the ingested trace (nil or
	// clean for an intact trace). A salvaged analysis runs on partial
	// evidence: the verdict cache salts its epoch with the salvage extents
	// and publishes no incremental manifest (see cache.go).
	salvage *trace.DecodeStats
	// unlinkSeqs are each rank's positions of fid-generation bumps (unlink
	// records with a path — exactly those conflict detection counts),
	// ascending; the verdict cache's unlink guard reads them.
	unlinkSeqs [][]int32
	// records is where raw records live after the pass: block chains for
	// the verdict cache and race-detail records.
	records recordSource

	// cacheArt memoizes the verdict-cache digests (chunk plan, content
	// digests, sync epoch, block chains): they are model independent, so
	// the four passes of VerifyAll share one computation.
	cacheMu  sync.Mutex
	cacheArt *cacheArtifacts

	// plan memoizes the resolved query plan (per-op skeleton coordinates
	// and the segment prober); model independent, shared by every pass.
	planMu sync.Mutex
	plan   *opPlan

	// idxMemo memoizes sync indexes across VerifyAll model passes, keyed by
	// the model's sync-op specification (syncSpecKey).
	idxMu   sync.Mutex
	idxMemo map[string]*syncIndex
}

// recordSource is where an analysis finds raw records once its pass is
// over: the per-rank block chains the verdict cache keys its manifests on,
// and the records race details name. It is the one difference left between
// the ingestion modes.
type recordSource interface {
	// chain returns rank's block chain (trace.BlockChain of its records).
	chain(rank int) [][32]byte
	// fetch makes the records of refs available to record.
	fetch(refs []trace.Ref, opts Options) error
	// record returns a fetched record.
	record(ref trace.Ref) *trace.Record
}

// memRecords serves a materialized trace: chains are digested on first
// cache use (no cost without a cache) and every record is at hand.
type memRecords struct{ tr *trace.Trace }

func (m memRecords) chain(rank int) [][32]byte          { return trace.BlockChain(m.tr.Ranks[rank]) }
func (memRecords) fetch([]trace.Ref, Options) error     { return nil }
func (m memRecords) record(ref trace.Ref) *trace.Record { return m.tr.Record(ref) }

// NumRanks returns the number of ranks analyzed.
func (a *Analysis) NumRanks() int { return len(a.counts) }

// NumRecords returns the total number of records analyzed.
func (a *Analysis) NumRecords() int {
	n := 0
	for _, c := range a.counts {
		n += c
	}
	return n
}

// Salvage returns the decode salvage state attached to this analysis; nil
// when none was recorded.
func (a *Analysis) Salvage() *trace.DecodeStats { return a.salvage }

// SetSalvage attaches the decode salvage state of the trace this analysis
// was built from. Callers that loaded a trace leniently (tolerate mode)
// should pass the decode stats through so the verdict cache can tell a
// salvaged trace from its repaired original; AnalyzeStream does this
// automatically.
func (a *Analysis) SetSalvage(stats *trace.DecodeStats) { a.salvage = stats }

// salvaged reports whether the analyzed trace lost records to decoding
// damage — the analysis ran on partial evidence.
func (a *Analysis) salvaged() bool {
	return a.salvage != nil && !a.salvage.Clean()
}

// autoThresholds: with few conflicts but a huge graph, building clocks costs
// more than it saves; otherwise vector clocks win (O(1) queries).
const (
	autoFewConflicts = 512
	autoBigGraph     = 200_000
)

// AnalyzeOptions tunes Analyze.
type AnalyzeOptions struct {
	// Workers bounds the goroutines used inside steps 2–3: the per-rank pass
	// (replay and MPI scan of each rank on its own worker), the conflict
	// sweep, and the happens-before wavefronts. 0 means GOMAXPROCS; 1 forces
	// the fully serial path. The analysis is identical at every worker count.
	Workers int
	// Obs carries telemetry sinks through the whole analysis; the zero Ctx
	// disables instrumentation.
	Obs obs.Ctx
}

// Analyze runs steps 2 and 3 with a GOMAXPROCS-wide worker pool; see
// AnalyzeOpts.
func Analyze(tr *trace.Trace, algo Algo) (*Analysis, error) {
	return AnalyzeOpts(tr, algo, AnalyzeOptions{})
}

// AnalyzeOpts runs steps 2 and 3 on a materialized trace and prepares the
// happens-before oracle: the analysis core with each rank fed as one batch.
func AnalyzeOpts(tr *trace.Trace, algo Algo, opts AnalyzeOptions) (*Analysis, error) {
	oc, span := opts.Obs.Start("analyze", obs.Int("workers", par.Resolve(opts.Workers)))
	span.SetCat("analyze")
	defer span.End()
	start := time.Now()

	a := &Analysis{counts: make([]int, tr.NumRanks()), records: memRecords{tr}}
	for rank, recs := range tr.Ranks {
		a.counts[rank] = len(recs)
	}
	n := len(tr.Ranks)
	feed := func(rank int, visit batchFunc) { visit(rank, 0, tr.Ranks[rank]) }
	if err := a.analyze(algo, opts, oc, start, n, n, feed, nil); err != nil {
		return nil, err
	}
	return a, nil
}

// batchFunc consumes one batch of a rank's records; seq is the sequence
// number of the batch's first record.
type batchFunc func(rank, seq int, recs []trace.Record)

// analyze is the one analysis core behind AnalyzeOpts and AnalyzeStream.
// Each of the inputs runs on one worker of a single pool: feed(i, visit)
// hands one rank's records to visit in program order, batch by batch, and
// visit runs that rank's conflict replay, MPI scan and unlink-position scan
// on each batch. Once every input is drained, drained (when set) reports a
// source error and completes the per-rank facts; then the cross-rank
// finishes run and the happens-before oracle is built. The result is
// identical for any batch partitioning and at every worker count.
func (a *Analysis) analyze(algo Algo, opts AnalyzeOptions, oc obs.Ctx, start time.Time, nranks, inputs int,
	feed func(i int, visit batchFunc), drained func() error) error {
	det := conflict.NewStreamDetector(nranks)
	sm := match.NewStreamMatcher(nranks)
	busy := make([][2]time.Duration, nranks) // per rank: replay, scan
	a.unlinkSeqs = make([][]int32, nranks)
	shard := func(stage, name string, rank int) *obs.Span {
		if oc.T == nil {
			return nil
		}
		_, sp := oc.StartLane(stage+"/rank-"+strconv.Itoa(rank), name, obs.Int("rank", rank))
		return sp
	}
	visit := func(rank, seq int, recs []trace.Record) {
		t0 := time.Now()
		sp := shard("detect", "replay", rank)
		det.Feed(rank, recs)
		sp.End()
		t1 := time.Now()
		sp = shard("match", "scan", rank)
		sm.Feed(rank, recs)
		sp.End()
		busy[rank][0] += t1.Sub(t0)
		busy[rank][1] += time.Since(t1)
		for i := range recs {
			if recs[i].Func == "unlink" && recs[i].Arg(0) != "" {
				a.unlinkSeqs[rank] = append(a.unlinkSeqs[rank], int32(seq+i))
			}
		}
	}

	wall := time.Now()
	par.DoObs(oc, "analyze-rank", par.Resolve(opts.Workers), inputs, func(i int) { feed(i, visit) })
	if drained != nil {
		if err := drained(); err != nil {
			return err
		}
	}
	for _, b := range busy {
		a.Timing.DetectConflicts += b[0]
		a.Timing.Match += b[1]
	}
	t := time.Now()
	conf, err := det.Finish(conflict.Options{Workers: opts.Workers, Obs: oc})
	a.Timing.DetectConflicts += time.Since(t)
	if err != nil {
		return fmt.Errorf("verify: conflict detection: %w", err)
	}
	t = time.Now()
	mres, err := sm.Finish(match.Options{Workers: opts.Workers, Obs: oc})
	a.Timing.Match += time.Since(t)
	if err != nil {
		return fmt.Errorf("verify: MPI matching: %w", err)
	}
	a.Timing.DetectMatchWall = time.Since(wall)
	a.Conflicts, a.Match = conf, mres
	if err := a.buildOracle(algo, opts.Workers, oc); err != nil {
		return err
	}
	a.Timing.AnalyzeWall = time.Since(start)
	return nil
}

// buildOracle runs auto algorithm selection and happens-before construction
// for an analysis whose Conflicts, Match and counts are already set. Only
// positional facts (the per-rank counts) are consumed, never the records.
func (a *Analysis) buildOracle(algo Algo, workers int, oc obs.Ctx) error {
	start := time.Now()
	if algo == AlgoAuto {
		if a.Conflicts.Pairs < autoFewConflicts && a.NumRecords() > autoBigGraph {
			algo = AlgoOnTheFly
		} else {
			// Graph-backed default: the segment-reachability matrix gives
			// O(1) bit-probe queries; buildOracle degrades to vector clocks
			// if the matrix exceeds its byte budget.
			algo = AlgoSegment
		}
	}
	a.Algorithm = algo

	_, buildSpan := oc.Start("build-graph", obs.String("algorithm", algo.String()))
	if algo == AlgoOnTheFly {
		a.Oracle = hbgraph.NewOnTheFlyCounts(a.counts, a.Match.Edges)
		a.Timing.BuildGraph = time.Since(start)
		buildSpan.End()
		return nil
	}

	g, err := hbgraph.BuildCounts(a.counts, a.Match.Edges)
	if err != nil {
		buildSpan.End()
		return fmt.Errorf("verify: happens-before graph: %w", err)
	}
	a.Graph = g
	a.Timing.BuildGraph = time.Since(start)
	buildSpan.AddAttr(obs.Int("nodes", g.Nodes()), obs.Int("sync_edges", g.SyncEdges()),
		obs.Int("skeleton_nodes", g.SkeletonNodes()))
	buildSpan.End()
	if r := oc.R; r != nil {
		r.Gauge("hbgraph.nodes").Set(int64(g.Nodes()))
		r.Gauge("hbgraph.sync_edges").Set(int64(g.SyncEdges()))
		r.Gauge("hbgraph.skeleton_nodes").Set(int64(g.SkeletonNodes()))
		r.Gauge("hbgraph.skeleton_levels").Set(int64(g.SkeletonLevels()))
		r.Gauge("hbgraph.skeleton_max_level_width").Set(int64(g.SkeletonMaxLevelWidth()))
	}

	start = time.Now()
	buildVC := func() error {
		_, vcSpan := oc.Start("vector-clocks",
			obs.Int("skeleton_nodes", g.SkeletonNodes()),
			obs.Int("levels", g.SkeletonLevels()),
			obs.Int("max_level_width", g.SkeletonMaxLevelWidth()))
		vc, err := g.VectorClocksOpts(hbgraph.VCOptions{Workers: workers, Obs: oc})
		vcSpan.End()
		if err != nil {
			return fmt.Errorf("verify: vector clocks: %w", err)
		}
		a.Oracle = vc
		a.Timing.VectorClock = time.Since(start)
		return nil
	}
	switch algo {
	case AlgoVectorClock:
		return buildVC()
	case AlgoReachability:
		a.Oracle = g.Reachability()
	case AlgoTransitiveClosure, AlgoSegment:
		// The transitive closure of §IV-D3 is the segment×segment matrix:
		// the same reverse-topological OR over the skeleton.
		_, segSpan := oc.Start("seg-reach",
			obs.Int("skeleton_nodes", g.SkeletonNodes()),
			obs.Int("levels", g.SkeletonLevels()))
		seg, err := g.SegReachability(hbgraph.SegOptions{Workers: workers, Obs: oc})
		segSpan.End()
		if err != nil {
			// Matrix over its byte budget (or skeleton not orderable):
			// degrade rather than fail the run — the closure to BFS
			// reachability, the segment oracle to vector clocks (where a
			// cyclic skeleton still fails, in the clock pass).
			if algo == AlgoTransitiveClosure {
				a.Oracle = g.Reachability()
				a.Algorithm = AlgoReachability
				return nil
			}
			a.Algorithm = AlgoVectorClock
			return buildVC()
		}
		a.Oracle = seg
	default:
		return fmt.Errorf("verify: unsupported algorithm %v", algo)
	}
	return nil
}
