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
	"io"
	"slices"
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

// Timing is the per-stage breakdown Table IV reports.
type Timing struct {
	// ReadTrace is set by callers that loaded the trace from storage.
	ReadTrace time.Duration
	// DetectConflicts covers step 2.
	DetectConflicts time.Duration
	// Match covers step 3 (MPI matching).
	Match time.Duration
	// BuildGraph covers happens-before graph construction.
	BuildGraph time.Duration
	// VectorClock covers clock generation (zero for other algorithms).
	VectorClock time.Duration
	// Verification covers the per-model conflict checking.
	Verification time.Duration

	// Wall-clock overlap fields. Every field whose name ends in "Wall"
	// measures elapsed wall time across stages that (can) run concurrently,
	// so it overlaps the per-stage durations above and MUST be excluded
	// from Total — adding one to the sum would double-report. The naming
	// convention is enforced by the reflection pin test in timing_test.go:
	// a new overlap field is excluded automatically by its suffix, and a
	// new per-stage field fails the test until Total is updated.

	// DetectMatchWall is the wall-clock time of the combined
	// detect-conflicts/match phase. With Workers != 1 the two stages run
	// concurrently (they are independent consumers of the trace), so this
	// is less than DetectConflicts + Match; serially it is their sum.
	DetectMatchWall time.Duration
	// AnalyzeWall is the wall-clock time of the whole Analyze call
	// (detect + match + graph build + clock generation), the elapsed time
	// a caller observes for steps 2–3.
	AnalyzeWall time.Duration
}

// Total sums the per-stage durations. Wall-clock overlap fields
// ("Wall"-suffixed) are intentionally excluded: they re-measure spans of
// the same stages and would double-report.
func (t Timing) Total() time.Duration {
	return t.ReadTrace + t.DetectConflicts + t.Match + t.BuildGraph + t.VectorClock + t.Verification
}

// Analysis is the model-independent part of a verification run.
type Analysis struct {
	// Trace is the materialized trace. Nil for analyses produced by
	// AnalyzeStream, which consume records as they decode and keep only
	// the derived state below.
	Trace     *trace.Trace
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
	// and cache manifests need; always valid even when Trace is nil.
	counts []int
	// salvage is the decode salvage state of the ingested trace (nil or
	// clean for an intact trace). A salvaged analysis runs on partial
	// evidence: the verdict cache salts its epoch with the salvage extents
	// and publishes no incremental manifest (see cache.go).
	salvage *trace.DecodeStats
	// Streaming-only state (Trace == nil): the trace directory and decode
	// options for re-fetching race-detail records, the per-rank block
	// chains and unlink positions digested during the single pass (what
	// cacheArtifacts reads instead of the records).
	streamDir    string
	streamOpts   trace.DecodeOptions
	streamWindow int64
	chains       [][][32]byte
	unlinkSeqs   [][]int32

	// raceRecs memoizes records re-decoded for race details on streaming
	// analyses; model passes share it.
	raceMu   sync.Mutex
	raceRecs map[trace.Ref]trace.Record

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

// record resolves one record for race-detail materialization. Streaming
// analyses serve it from the prefetched memo (see prefetchRecords); the
// ref must have been prefetched.
func (a *Analysis) record(ref trace.Ref) *trace.Record {
	if a.Trace != nil {
		return a.Trace.Record(ref)
	}
	a.raceMu.Lock()
	rec, ok := a.raceRecs[ref]
	a.raceMu.Unlock()
	if !ok {
		// Contract violation (prefetchRecords not called); fail soft with
		// an empty record rather than panicking inside report assembly.
		return &trace.Record{Rank: ref.Rank, Seq: ref.Seq}
	}
	return &rec
}

// prefetchRecords re-decodes the given records from the stream source into
// the race-detail memo. No-op for materialized analyses. Only rank files
// holding a needed record are opened; they decode in parallel, each
// stopping after its last needed record. The set is bounded by the models'
// MaxRaceDetails, so this is a cheap windowed pass.
func (a *Analysis) prefetchRecords(refs []trace.Ref, opts Options) error {
	if a.Trace != nil || len(refs) == 0 {
		return nil
	}
	a.raceMu.Lock()
	defer a.raceMu.Unlock()
	need := make(map[int][]int) // rank -> needed seqs
	for _, ref := range refs {
		if _, ok := a.raceRecs[ref]; !ok {
			need[ref.Rank] = append(need[ref.Rank], ref.Seq)
		}
	}
	if len(need) == 0 {
		return nil
	}
	ranks := make([]int, 0, len(need))
	for r := range need {
		ranks = append(ranks, r)
	}
	slices.Sort(ranks)
	for _, r := range ranks {
		slices.Sort(need[r])
		need[r] = slices.Compact(need[r])
	}
	oc, span := opts.Obs.Start("race-details", obs.Int("ranks", len(ranks)))
	defer span.End()
	workers := par.Resolve(opts.Workers)
	s, err := trace.OpenRanks(a.streamDir, ranks, trace.StreamOptions{
		DecodeOptions: trace.DecodeOptions{Limits: a.streamOpts.Limits, Tolerate: a.streamOpts.Tolerate,
			Obs: obs.Ctx{T: oc.T, S: oc.S}},
		WindowBytes: a.streamWindow,
		Concurrency: workers,
	})
	if err != nil {
		return fmt.Errorf("verify: race details: %w", err)
	}
	defer s.Close()
	found := make([][]trace.Record, len(ranks))
	errs := make([]error, len(ranks))
	par.Do(workers, len(ranks), func(i int) {
		src, seqs := s.Sources()[i], need[ranks[i]]
		for len(seqs) > 0 {
			b, err := src.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				errs[i] = err
				return
			}
			for len(seqs) > 0 && seqs[0] < b.Start+len(b.Recs) {
				if seqs[0] >= b.Start {
					found[i] = append(found[i], b.Recs[seqs[0]-b.Start])
				}
				seqs = seqs[1:]
			}
			b.Release()
		}
	})
	// The counter is the records read through the last needed one on each
	// opened rank: unlike the batches decoded, it does not depend on the
	// per-rank window, and so not on the worker count.
	total, missing := 0, 0
	if a.raceRecs == nil {
		a.raceRecs = make(map[trace.Ref]trace.Record)
	}
	for i, rank := range ranks {
		if errs[i] != nil {
			return fmt.Errorf("verify: race details: %w", errs[i])
		}
		seqs := need[rank]
		total += seqs[len(seqs)-1] + 1
		missing += len(seqs) - len(found[i])
		for _, rec := range found[i] {
			a.raceRecs[trace.Ref{Rank: rank, Seq: rec.Seq}] = rec
		}
	}
	opts.Obs.Counter("verify.race_redecode_records").Add(int64(total))
	if missing > 0 {
		return fmt.Errorf("verify: race details: %d race records missing from re-decoded trace %s", missing, a.streamDir)
	}
	return nil
}

// autoThresholds: with few conflicts but a huge graph, building clocks costs
// more than it saves; otherwise vector clocks win (O(1) queries).
const (
	autoFewConflicts = 512
	autoBigGraph     = 200_000
)

// AnalyzeOptions tunes Analyze.
type AnalyzeOptions struct {
	// Workers bounds the goroutines used inside steps 2–3: conflict.Detect
	// shards its per-rank replay and per-file sweep, match.Match its
	// per-rank scan, and with Workers != 1 the two steps additionally run
	// concurrently with each other. 0 means GOMAXPROCS; 1 forces the fully
	// serial path. The analysis is identical at every worker count.
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

// AnalyzeOpts runs steps 2 and 3 on the trace and prepares the
// happens-before oracle.
func AnalyzeOpts(tr *trace.Trace, algo Algo, opts AnalyzeOptions) (*Analysis, error) {
	workers := par.Resolve(opts.Workers)
	a := &Analysis{Trace: tr, counts: make([]int, tr.NumRanks())}
	for rank, recs := range tr.Ranks {
		a.counts[rank] = len(recs)
	}
	oc, span := opts.Obs.Start("analyze", obs.Int("workers", workers))
	span.SetCat("analyze")
	defer span.End()
	analyzeWall := time.Now()
	defer func() { a.Timing.AnalyzeWall = time.Since(analyzeWall) }()

	// Steps 2 and 3 read the trace and nothing else, so they can overlap.
	// Each stage times itself; the shared wall clock records the overlap.
	var (
		conf    *conflict.Result
		confErr error
		mres    *match.Result
		mErr    error
	)
	wall := time.Now()
	detect := func() {
		start := time.Now()
		conf, confErr = conflict.DetectOpts(tr, conflict.Options{Workers: opts.Workers, Obs: oc})
		a.Timing.DetectConflicts = time.Since(start)
	}
	doMatch := func() {
		start := time.Now()
		mres, mErr = match.MatchOpts(tr, match.Options{Workers: opts.Workers, Obs: oc})
		a.Timing.Match = time.Since(start)
	}
	if workers > 1 {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			doMatch()
		}()
		detect()
		wg.Wait()
	} else {
		detect()
		doMatch()
	}
	a.Timing.DetectMatchWall = time.Since(wall)
	if confErr != nil {
		return nil, fmt.Errorf("verify: conflict detection: %w", confErr)
	}
	if mErr != nil {
		return nil, fmt.Errorf("verify: MPI matching: %w", mErr)
	}
	a.Conflicts = conf
	a.Match = mres
	if err := a.buildOracle(algo, opts.Workers, oc); err != nil {
		return nil, err
	}
	return a, nil
}

// buildOracle runs auto algorithm selection and happens-before construction
// for an analysis whose Conflicts, Match and counts are already set — the
// shared tail of AnalyzeOpts and AnalyzeStream. Only positional facts (the
// per-rank counts) are consumed, never the records.
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
	case AlgoTransitiveClosure:
		tc, err := g.TransitiveClosure()
		if err != nil {
			// Graph too large for the closure: degrade to BFS
			// reachability rather than failing the run.
			a.Oracle = g.Reachability()
			a.Algorithm = AlgoReachability
		} else {
			a.Oracle = tc
		}
	case AlgoSegment:
		_, segSpan := oc.Start("seg-reach",
			obs.Int("skeleton_nodes", g.SkeletonNodes()),
			obs.Int("levels", g.SkeletonLevels()))
		seg, err := g.SegReachability(hbgraph.SegOptions{Workers: workers, Obs: oc})
		segSpan.End()
		if err != nil {
			// Matrix over its byte budget (or skeleton not orderable):
			// degrade to vector clocks rather than failing the run —
			// mirroring the transitive-closure fallback above. A cyclic
			// skeleton still fails, in the clock pass.
			a.Algorithm = AlgoVectorClock
			return buildVC()
		}
		a.Oracle = seg
	default:
		return fmt.Errorf("verify: unsupported algorithm %v", algo)
	}
	return nil
}
