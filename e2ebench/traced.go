package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"verifyio/internal/conflict"
	"verifyio/internal/hbgraph"
	"verifyio/internal/match"
	"verifyio/internal/semantics"
	"verifyio/internal/trace"
	"verifyio/internal/vcache"
	"verifyio/internal/verify"
)

// rootLayer is the layer of the benchmark's own root spans: their self
// time is the part of the traced wall no layer call accounts for.
const rootLayer = "bench"

// layers are the per-layer time metrics, in report order; each is the
// self time of the spans carrying that layer, per unit.
var layers = []string{
	"trace.read", "trace.stream",
	"conflict.detect", "conflict.detect_serial",
	"match.match",
	"hbgraph.build", "hbgraph.oracle",
	"verify.analyze", "verify.analyze_serial", "verify.models", "verify.render",
	"vcache.open",
}

// span is one timed call: a layer boundary the benchmark crossed.
type span struct {
	Name   string
	Layer  string
	Start  time.Duration // since the recorder's origin
	End    time.Duration
	Parent int // index into the recorder's spans; -1 for a root
}

// recorder keeps the spans of one traced run in memory. Calls nest on one
// goroutine, so an open-span stack gives every span its parent. A nil
// recorder records nothing, which is how the untraced twin of each traced
// verification runs the same calls.
type recorder struct {
	origin time.Time
	spans  []span
	open   []int
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) begin(name, layer string) {
	if r == nil {
		return
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Layer: layer, Start: time.Since(r.origin), Parent: parent})
	r.open = append(r.open, len(r.spans)-1)
}

func (r *recorder) end() {
	if r == nil {
		return
	}
	n := len(r.open) - 1
	r.spans[r.open[n]].End = time.Since(r.origin)
	r.open = r.open[:n]
}

// call records f as one span.
func call[T any](r *recorder, name, layer string, f func() (T, error)) (T, error) {
	r.begin(name, layer)
	defer r.end()
	return f()
}

// layerTable returns each layer's self time — a span's duration minus the
// durations of its children — and the traced wall, the summed duration of
// the root spans. The self times sum to the wall exactly.
func layerTable(spans []span) (map[string]time.Duration, time.Duration) {
	self := make(map[string]time.Duration)
	var wall time.Duration
	for _, s := range spans {
		d := s.End - s.Start
		self[s.Layer] += d
		if s.Parent < 0 {
			wall += d
		} else {
			self[spans[s.Parent].Layer] -= d
		}
	}
	return self, wall
}

// writeChromeTrace writes the spans as Chrome trace_event JSON (complete
// "X" events on one track), loadable in chrome://tracing or Perfetto.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: 1}
		if s.Parent >= 0 {
			events[i].Args = map[string]string{"parent": spans[s.Parent].Name}
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// unitCounts are the work counts of one unit, summed over its
// verifications.
type unitCounts struct {
	records, dirBytes, peakResident          int64
	pairs, groups, allocBytes                int64
	edges, problems                          int64
	skeletonNodes, segreachBytes             int64
	checks, races, hits, misses, dirtyChunks int64
}

// tracer runs the traced units of one bench.
type tracer struct {
	*bench
	workers int
	stream  bool
	c       unitCounts
}

// pipeline is the user's path for one directory split at the layer
// boundaries the benchmark can reach from outside the verify package:
// read (or streamed analysis), analysis, the four model passes one after
// another, and the four renders. The untraced twin passes a nil recorder.
func (t *tracer) pipeline(r *recorder, name string, store *vcache.Store) (*trace.Trace, *verify.Analysis, error) {
	path := filepath.Join(t.dir, name)
	r.begin("verification "+name, rootLayer)
	tr, a, reps, err := t.pipelineCalls(r, path, store)
	r.end()
	if err != nil || r == nil {
		return tr, a, err
	}
	// Only the traced pass books its verdicts and counts.
	e := Expect{}
	for i, rep := range reps {
		e.Races[i] = rep.RaceCount
		e.Pairs = rep.ConflictPairs
		e.Unmatched = e.Unmatched || !rep.Verified
		t.c.checks += rep.ChecksPerformed
		t.c.races += rep.RaceCount
		if rep.Cache != nil {
			t.c.hits += rep.Cache.Hits
			t.c.misses += rep.Cache.Misses
			t.c.dirtyChunks += rep.Cache.DirtyChunks
		}
	}
	t.record(name, t.verdictError(name, e))
	return tr, a, nil
}

// pipelineCalls makes the pipeline's layer calls, each in its own span.
func (t *tracer) pipelineCalls(r *recorder, path string, store *vcache.Store) (*trace.Trace, *verify.Analysis, []*verify.Report, error) {
	var tr *trace.Trace
	var a *verify.Analysis
	var err error
	if t.stream {
		a, err = call(r, "verify.AnalyzeStream", "verify.analyze", func() (*verify.Analysis, error) {
			return verify.AnalyzeStream(path, verify.AlgoAuto, verify.StreamAnalyzeOptions{
				AnalyzeOptions: verify.AnalyzeOptions{Workers: t.workers}})
		})
	} else {
		tr, err = call(r, "trace.ReadDir", "trace.read", func() (*trace.Trace, error) { return trace.ReadDir(path) })
		if err == nil {
			a, err = call(r, "verify.AnalyzeOpts", "verify.analyze", func() (*verify.Analysis, error) {
				return verify.AnalyzeOpts(tr, verify.AlgoAuto, verify.AnalyzeOptions{Workers: t.workers})
			})
		}
	}
	if err != nil {
		return nil, nil, nil, err
	}
	var reps []*verify.Report
	for _, m := range semantics.All() {
		rep, err := call(r, "verify.Analysis.Verify "+m.Name, "verify.models", func() (*verify.Report, error) {
			return a.Verify(verify.Options{Model: m, Workers: t.workers, Cache: store, CacheID: appendID})
		})
		if err != nil {
			return nil, nil, nil, err
		}
		reps = append(reps, rep)
	}
	t.out.Reset()
	for _, rep := range reps {
		r.begin("verify.Report.Render "+rep.Model, "verify.render")
		rep.Render(&t.out)
		r.end()
	}
	return tr, a, reps, nil
}

// oracle builds the happens-before oracle the analysis chose, standalone
// and serially; the on-the-fly algorithm has none beyond the graph.
func oracle(r *recorder, g *hbgraph.Graph, algo verify.Algo, c *unitCounts) error {
	r.begin("hbgraph oracle "+algo.String(), "hbgraph.oracle")
	defer r.end()
	switch algo {
	case verify.AlgoSegment:
		o, err := g.SegReachability(hbgraph.SegOptions{Workers: 1})
		if err != nil {
			return err
		}
		c.segreachBytes += int64(o.ArenaBytes())
	case verify.AlgoVectorClock:
		if _, err := g.VectorClocksOpts(hbgraph.VCOptions{Workers: 1}); err != nil {
			return err
		}
	}
	return nil
}

// allocated returns the bytes allocated so far by the process. Unlike
// runtime.ReadMemStats it does not stop the world.
func allocated() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// breakdown splits a materialized analysis into standalone calls on the
// same trace: detection at both worker counts, then matching, graph build,
// oracle and the whole analysis at workers = 1.
func (t *tracer) breakdown(r *recorder, name string, tr *trace.Trace, algo verify.Algo) error {
	r.begin("breakdown "+name, rootLayer)
	defer r.end()
	before := allocated()
	conf, err := call(r, "conflict.DetectOpts", "conflict.detect", func() (*conflict.Result, error) {
		return conflict.DetectOpts(tr, conflict.Options{Workers: t.workers})
	})
	if err != nil {
		return err
	}
	t.c.allocBytes += allocated() - before
	if _, err := call(r, "conflict.DetectOpts serial", "conflict.detect_serial", func() (*conflict.Result, error) {
		return conflict.DetectOpts(tr, conflict.Options{Workers: 1})
	}); err != nil {
		return err
	}
	mres, err := call(r, "match.MatchOpts", "match.match", func() (*match.Result, error) {
		return match.MatchOpts(tr, match.Options{Workers: 1})
	})
	if err != nil {
		return err
	}
	g, err := call(r, "hbgraph.Build", "hbgraph.build", func() (*hbgraph.Graph, error) { return hbgraph.Build(tr, mres.Edges) })
	if err != nil {
		return err
	}
	if err := oracle(r, g, algo, &t.c); err != nil {
		return err
	}
	if _, err := call(r, "verify.AnalyzeOpts serial", "verify.analyze_serial", func() (*verify.Analysis, error) {
		return verify.AnalyzeOpts(tr, verify.AlgoAuto, verify.AnalyzeOptions{Workers: 1})
	}); err != nil {
		return err
	}
	t.c.records += int64(tr.NumRecords())
	t.countAnalysis(conf, mres, g)
	return nil
}

func (t *tracer) countAnalysis(conf *conflict.Result, mres *match.Result, g *hbgraph.Graph) {
	t.c.pairs += conf.Pairs
	t.c.groups += int64(len(conf.Groups))
	t.c.edges += int64(len(mres.Edges))
	t.c.problems += int64(len(mres.Problems))
	t.c.skeletonNodes += int64(g.SkeletonNodes())
}

// streamBreakdown is breakdown for the streamed workload: it drains
// trace.OpenStream alone and feeds each batch to two conflict.StreamDetectors
// (finished at both worker counts) and a match.StreamMatcher, so the
// trace.stream self time is decoding and the stream's bookkeeping.
func (t *tracer) streamBreakdown(r *recorder, name string, algo verify.Algo) error {
	path := filepath.Join(t.dir, name)
	r.begin("breakdown "+name, rootLayer)
	defer r.end()
	r.begin("trace.Stream drain", "trace.stream")
	s, err := trace.OpenStream(path, trace.StreamOptions{})
	if err != nil {
		r.end()
		return err
	}
	n := s.NumRanks()
	det, detSerial, sm := conflict.NewStreamDetector(n), conflict.NewStreamDetector(n), match.NewStreamMatcher(n)
	for {
		b, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.Close()
			r.end()
			return err
		}
		r.begin("conflict.StreamDetector.Feed", "conflict.detect")
		det.Feed(b.Rank, b.Recs)
		r.end()
		r.begin("conflict.StreamDetector.Feed serial", "conflict.detect_serial")
		detSerial.Feed(b.Rank, b.Recs)
		r.end()
		r.begin("match.StreamMatcher.Feed", "match.match")
		sm.Feed(b.Rank, b.Recs)
		r.end()
		b.Release()
	}
	counts := s.Counts()
	t.c.peakResident = max(t.c.peakResident, s.PeakResidentBytes())
	err = s.Close()
	r.end()
	if err != nil {
		return err
	}
	before := allocated()
	conf, err := call(r, "conflict.StreamDetector.Finish", "conflict.detect", func() (*conflict.Result, error) {
		return det.Finish(conflict.Options{Workers: t.workers})
	})
	if err != nil {
		return err
	}
	t.c.allocBytes += allocated() - before
	if _, err := call(r, "conflict.StreamDetector.Finish serial", "conflict.detect_serial", func() (*conflict.Result, error) {
		return detSerial.Finish(conflict.Options{Workers: 1})
	}); err != nil {
		return err
	}
	mres, err := call(r, "match.StreamMatcher.Finish", "match.match", func() (*match.Result, error) {
		return sm.Finish(match.Options{Workers: 1})
	})
	if err != nil {
		return err
	}
	g, err := call(r, "hbgraph.BuildCounts", "hbgraph.build", func() (*hbgraph.Graph, error) {
		return hbgraph.BuildCounts(counts, mres.Edges)
	})
	if err != nil {
		return err
	}
	if err := oracle(r, g, algo, &t.c); err != nil {
		return err
	}
	if _, err := call(r, "verify.AnalyzeStream serial", "verify.analyze_serial", func() (*verify.Analysis, error) {
		return verify.AnalyzeStream(path, verify.AlgoAuto, verify.StreamAnalyzeOptions{AnalyzeOptions: verify.AnalyzeOptions{Workers: 1}})
	}); err != nil {
		return err
	}
	for _, c := range counts {
		t.c.records += int64(c)
	}
	t.countAnalysis(conf, mres, g)
	return nil
}

// unitPipeline runs the unit's pipeline over every directory in order,
// inside an on-disk verdict cache for append-reverify, and returns the wall
// time of its calls (GC excluded; span recording included when traced),
// plus each directory's trace and analysis (nil when untraced).
func (t *tracer) unitPipeline(r *recorder) (time.Duration, []*trace.Trace, []*verify.Analysis, error) {
	var wall time.Duration
	timed := func(f func() error) error {
		start := time.Now()
		err := f()
		wall += time.Since(start)
		return err
	}
	var store *vcache.Store
	if t.workload == "append-reverify" {
		t.caches++
		dir := filepath.Join(t.dir, fmt.Sprintf("cache-%d", t.caches))
		defer os.RemoveAll(dir)
		err := timed(func() (err error) {
			store, err = call(r, "vcache.Open", "vcache.open", func() (*vcache.Store, error) { return vcache.Open(dir) })
			return err
		})
		if err != nil {
			return 0, nil, nil, err
		}
	}
	var trs []*trace.Trace
	var as []*verify.Analysis
	for _, name := range t.order {
		runtime.GC()
		err := timed(func() error {
			tr, a, err := t.pipeline(r, name, store)
			if r != nil {
				trs, as = append(trs, tr), append(as, a)
			}
			return err
		})
		if err != nil {
			return 0, nil, nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	if store != nil {
		if err := timed(func() error {
			_, err := call(r, "vcache.Store.Close", "vcache.open", func() (struct{}, error) { return struct{}{}, store.Close() })
			return err
		}); err != nil {
			return 0, nil, nil, err
		}
	}
	return wall, trs, as, nil
}

// tracedRun measures the per-layer metrics. Each unit runs the pipeline
// traced, then untraced (the twin whose wall the tracing overhead is
// measured against), then the standalone breakdown of every directory.
// Layer times and counts are per unit; the spans go to chromePath.
func tracedRun(b *bench, budget time.Duration, chromePath string) (map[string]metric, error) {
	t := &tracer{bench: b, workers: runtime.GOMAXPROCS(0), stream: b.workload == "stream-sparse-large"}
	var inputBytes int64
	for _, name := range t.order {
		n, err := dirBytes(filepath.Join(b.dir, name))
		if err != nil {
			return nil, err
		}
		inputBytes += n
	}
	r := newRecorder()
	var tracedWalls, plainWalls []float64
	units := 0
	for start := time.Now(); units < 1 || time.Since(start) < budget; units++ {
		t.c = unitCounts{}
		traced, trs, as, err := t.unitPipeline(r)
		if err != nil {
			return nil, err
		}
		plain, _, _, err := t.unitPipeline(nil)
		if err != nil {
			return nil, err
		}
		tracedWalls, plainWalls = append(tracedWalls, traced.Seconds()), append(plainWalls, plain.Seconds())
		for i, name := range t.order {
			runtime.GC()
			if t.stream {
				err = t.streamBreakdown(r, name, as[i].Algorithm)
			} else {
				err = t.breakdown(r, name, trs[i], as[i].Algorithm)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
		trs, as = nil, nil
	}
	if err := writeChromeTrace(chromePath, r.spans); err != nil {
		return nil, err
	}
	fmt.Printf("# chrome trace: %s (%d spans, %d units)\n", chromePath, len(r.spans), units)

	self, wall := layerTable(r.spans)
	perUnit := func(d time.Duration) float64 { return d.Seconds() / float64(units) }
	ms := map[string]metric{}
	for _, l := range layers {
		ms[l+"_s"] = metric{perUnit(self[l]), "s"}
	}
	ms["bench.unattributed_s"] = metric{perUnit(self[rootLayer]), "s"}
	ms["bench.traced_wall_s"] = metric{perUnit(wall), "s"}
	ms["bench.attributed_frac"] = metric{1 - self[rootLayer].Seconds()/wall.Seconds(), "ratio"}
	ms["bench.tracing_overhead_s"] = metric{median(tracedWalls) - median(plainWalls), "s"}
	ms["verify.analyze_rest_s"] = metric{perUnit(self["verify.analyze_serial"] - self["conflict.detect_serial"] -
		self["match.match"] - self["hbgraph.build"] - self["hbgraph.oracle"]), "s"}

	c := t.c
	hitRatio := 0.0
	if c.hits+c.misses > 0 {
		hitRatio = float64(c.hits) / float64(c.hits+c.misses)
	}
	for name, v := range map[string]int64{
		"trace.records": c.records, "conflict.pairs": c.pairs, "conflict.groups": c.groups,
		"match.edges": c.edges, "match.problems": c.problems, "hbgraph.skeleton_nodes": c.skeletonNodes,
		"verify.checks": c.checks, "verify.races": c.races,
		"vcache.hits": c.hits, "vcache.misses": c.misses, "vcache.dirty_chunks": c.dirtyChunks,
	} {
		ms[name] = metric{float64(v), "count"}
	}
	for name, v := range map[string]int64{
		"trace.dir_bytes": inputBytes, "trace.peak_resident_bytes": c.peakResident,
		"conflict.alloc_bytes": c.allocBytes, "hbgraph.segreach_bytes": c.segreachBytes,
	} {
		ms[name] = metric{float64(v), "bytes"}
	}
	ms["vcache.hit_ratio"] = metric{hitRatio, "ratio"}
	ms["verify.truth_mismatches"] = metric{float64(b.TruthMismatches) / float64(units), "count"}
	ms["fail_frac"] = metric{float64(b.Failed) / float64(max(b.Attempted, 1)), "ratio"}
	printLayerTable(self, wall, units)
	return ms, nil
}

func printLayerTable(self map[string]time.Duration, wall time.Duration, units int) {
	names := make([]string, 0, len(self))
	for l := range self {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Printf("# layer table over %d units, traced wall %.6f s\n", units, wall.Seconds())
	for _, l := range names {
		fmt.Printf("#   %-24s %12.6f s %6.2f%%\n", l, self[l].Seconds(), 100*self[l].Seconds()/wall.Seconds())
	}
}
