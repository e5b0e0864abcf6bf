package verifyio

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"verifyio/internal/corpus"
	"verifyio/internal/semantics"
	"verifyio/internal/trace"
	"verifyio/internal/vcache"
	"verifyio/internal/verify"
)

// cacheVerifyAll runs the four-model verification of one analysis against a
// store (Workers selects the chunk execution schedule; the cache key set
// must not depend on it).
func cacheVerifyAll(t *testing.T, tr *trace.Trace, store *vcache.Store, workers int, id string) []*verify.Report {
	t.Helper()
	a, err := verify.AnalyzeOpts(tr, verify.AlgoVectorClock, verify.AnalyzeOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	reps, err := a.VerifyAll(semantics.All(), verify.Options{
		Workers: workers, ContinueOnUnmatched: true, Cache: store, CacheID: id,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reps
}

// sortedKeys renders a store's key set in a canonical order.
func sortedKeys(store *vcache.Store) string {
	ids := store.Keys()
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && bytes.Compare(ids[j][:], ids[j-1][:]) < 0; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	var buf bytes.Buffer
	for _, id := range ids {
		fmt.Fprintf(&buf, "%x\n", id)
	}
	return buf.String()
}

// TestCacheDigestStabilityAcrossWorkers is the digest-stability gate: the
// set of cache keys a verification run seals — chunk plan, content digests,
// model digests, epoch — must be identical at every worker count and across
// repeated runs. A schedule-dependent digest would make the cache silently
// cold (or worse, aliased) between machines.
func TestCacheDigestStabilityAcrossWorkers(t *testing.T) {
	workerCounts := []int{1, 2, 7, runtime.GOMAXPROCS(0)}
	for _, name := range []string{"pmulti_dset", "nc4perf", "flexible"} {
		tr := corpusTraceT(t, name)
		var base string
		for _, w := range workerCounts {
			for rep := 0; rep < 2; rep++ {
				store := vcache.NewMemory()
				cacheVerifyAll(t, tr, store, w, "stability/"+name)
				keys := sortedKeys(store)
				if keys == "" {
					t.Fatalf("%s workers=%d: run sealed no verdicts", name, w)
				}
				if base == "" {
					base = keys
				} else if keys != base {
					t.Errorf("%s workers=%d rep=%d: cache key set differs from workers=1",
						name, w, rep)
				}
			}
		}
	}
}

// TestCacheWarmEquivalenceCorpus extends the determinism suite to the
// cache: over the whole reproduce corpus, a cacheless run, a cold cached
// run, and a fully-warm cached run must produce byte-identical reports
// (fingerprints zero the cache counters themselves), and the warm run must
// be served entirely from cache.
func TestCacheWarmEquivalenceCorpus(t *testing.T) {
	for _, tc := range corpus.Tests() {
		tr, err := corpus.Run(tc)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		a, err := verify.Analyze(tr, verify.AlgoVectorClock)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		plain, err := a.VerifyAll(semantics.All(), verify.Options{ContinueOnUnmatched: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		store := vcache.NewMemory()
		cold := cacheVerifyAll(t, tr, store, 1, "corpus/"+tc.Name)
		warm := cacheVerifyAll(t, tr, store, 1, "corpus/"+tc.Name)
		for i := range plain {
			pj := reportFingerprint(t, plain[i])
			cj := reportFingerprint(t, cold[i])
			wj := reportFingerprint(t, warm[i])
			if !bytes.Equal(pj, cj) {
				t.Errorf("%s/%s: cold cached report differs from cacheless", tc.Name, plain[i].Model)
			}
			if !bytes.Equal(pj, wj) {
				t.Errorf("%s/%s: warm cached report differs from cacheless", tc.Name, plain[i].Model)
			}
			if warm[i].Verified && warm[i].Cache != nil && warm[i].Cache.Misses != 0 {
				t.Errorf("%s/%s: warm run missed %d chunks on an unchanged trace",
					tc.Name, warm[i].Model, warm[i].Cache.Misses)
			}
		}
	}
}

// Append-test geometry: ops is chosen so the shared per-rank prefix
// (2 + ops + 2·⌊ops/64⌋ = 1280 records) is an exact multiple of the
// 64-record digest block, so the manifest's block-granular cuts certify the
// whole base prefix. extra = 13 ≈ 1% of ops.
const (
	appendRanks  = 4
	appendOps    = 1240
	appendExtra  = 13
	appendWindow = int64(1 << 14)
	appendSeed   = int64(42)
)

// TestCacheAppendIncrementalEquivalence is the incremental gate: verifying
// an appended trace against the base run's store must (a) report exactly
// what a cold verification of the appended trace reports, and (b) promote
// the stable prefix instead of recomputing it — most chunks hit, only the
// dirtied tail misses.
func TestCacheAppendIncrementalEquivalence(t *testing.T) {
	base := corpus.ScalingTrace(appendRanks, appendOps, appendWindow, appendSeed)
	app := corpus.ScalingTraceAppend(appendRanks, appendOps, appendExtra, appendWindow, appendSeed)

	// The appended trace must extend the base per-rank record streams.
	for r := 0; r < appendRanks; r++ {
		nb, na := len(base.Ranks[r]), len(app.Ranks[r])
		if na <= nb {
			t.Fatalf("rank %d: appended trace has %d records, base %d", r, na, nb)
		}
		// Everything before the base's trailing close/barrier is shared.
		for i := 0; i < nb-2; i++ {
			if base.Ranks[r][i].Func != app.Ranks[r][i].Func ||
				fmt.Sprint(base.Ranks[r][i].Args) != fmt.Sprint(app.Ranks[r][i].Args) {
				t.Fatalf("rank %d record %d: append generator diverged from the base prefix", r, i)
			}
		}
	}

	coldApp := cacheVerifyAll(t, app, vcache.NewMemory(), 1, "append-test")

	store := vcache.NewMemory()
	cacheVerifyAll(t, base, store, 1, "append-test")
	incr := cacheVerifyAll(t, app, store, 1, "append-test")

	var hits, misses int64
	for i := range coldApp {
		if !bytes.Equal(reportFingerprint(t, coldApp[i]), reportFingerprint(t, incr[i])) {
			t.Errorf("%s: incremental report differs from cold verification of the appended trace",
				coldApp[i].Model)
		}
		hits += incr[i].Cache.Hits
		misses += incr[i].Cache.Misses
		if incr[i].Cache.DirtyChunks != incr[i].Cache.Misses {
			t.Errorf("%s: %d misses but %d charged dirty — a manifest was present, every miss is a dirty chunk",
				incr[i].Model, incr[i].Cache.Misses, incr[i].Cache.DirtyChunks)
		}
	}
	if hits == 0 {
		t.Fatal("incremental run promoted nothing: the stable prefix was not certified")
	}
	if misses == 0 {
		t.Fatal("incremental run missed nothing: the appended region was not verified (test is vacuous)")
	}
	if hits <= misses {
		t.Errorf("incremental run: %d hits <= %d misses; a ~1%% append should dirty a small minority of chunks",
			hits, misses)
	}
}

// unlinkTrace builds a two-rank trace of conflicting writes; with tail set,
// rank 0 additionally unlinks and recreates the file in the appended region
// — the mutation that shifts fid generations and must disable promotion.
func unlinkTrace(tail bool) *trace.Trace {
	tr := trace.New(2)
	for rank := 0; rank < 2; rank++ {
		tick := int64(2)
		emit := func(layer trace.Layer, fn string, args ...string) {
			tr.Append(trace.Record{Rank: rank, Func: fn, Layer: layer,
				Args: args, Tick: tick, Ret: tick + 1})
			tick += 2
		}
		emit(trace.LayerMPI, "MPI_Barrier", "comm-world")
		emit(trace.LayerPOSIX, "open", "u.dat", "rw|creat", "3")
		for i := 0; i < 200; i++ {
			emit(trace.LayerPOSIX, "pwrite", "3", "16", fmt.Sprint(int64(i%32)*8))
		}
		if tail {
			if rank == 0 {
				emit(trace.LayerPOSIX, "close", "3")
				emit(trace.LayerPOSIX, "unlink", "u.dat")
				emit(trace.LayerPOSIX, "open", "u.dat", "rw|creat", "3")
			}
			for i := 0; i < 8; i++ {
				emit(trace.LayerPOSIX, "pwrite", "3", "16", fmt.Sprint(int64(i)*8))
			}
		}
		emit(trace.LayerPOSIX, "close", "3")
		emit(trace.LayerMPI, "MPI_Barrier", "comm-world")
	}
	return tr
}

// TestCacheUnlinkAppendStaysCorrect: when the appended region unlinks a
// file, promoting prefix verdicts would be unsound (fid generations shift);
// the unlink guard must refuse promotion, and the reports must still equal
// a cold verification of the changed trace.
func TestCacheUnlinkAppendStaysCorrect(t *testing.T) {
	base, app := unlinkTrace(false), unlinkTrace(true)

	coldApp := cacheVerifyAll(t, app, vcache.NewMemory(), 1, "unlink-test")

	store := vcache.NewMemory()
	cacheVerifyAll(t, base, store, 1, "unlink-test")
	incr := cacheVerifyAll(t, app, store, 1, "unlink-test")

	var misses int64
	for i := range coldApp {
		if !bytes.Equal(reportFingerprint(t, coldApp[i]), reportFingerprint(t, incr[i])) {
			t.Errorf("%s: incremental report differs from cold verification after an unlink append",
				coldApp[i].Model)
		}
		if incr[i].Cache.Hits != 0 {
			t.Errorf("%s: %d chunks promoted across an unlink — the guard must disable promotion",
				incr[i].Model, incr[i].Cache.Hits)
		}
		misses += incr[i].Cache.Misses
	}
	if misses == 0 {
		t.Fatal("unlink trace produced no chunk work; the guard test is vacuous")
	}
}

// TestPublicAPICache exercises the cache through the public surface (what
// cmd/verifyio plumbs): OpenCache on a directory, two VerifyAll runs, the
// second fully warm, stats surfaced on both the Report and the Cache.
func TestPublicAPICache(t *testing.T) {
	tr, err := RunCorpusTest("flexible")
	if err != nil {
		t.Fatal(err)
	}
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	opts := &Options{Algorithm: "vector-clock", Cache: cache, CacheID: "public-test"}
	cold, err := VerifyAll(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := VerifyAll(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		if cold[i].Cache == nil || warm[i].Cache == nil {
			t.Fatal("cached public reports missing Cache stats")
		}
		if warm[i].Cache.Misses != 0 {
			t.Errorf("%s: warm public run missed %d chunks", warm[i].Model, warm[i].Cache.Misses)
		}
		if cold[i].RaceCount != warm[i].RaceCount {
			t.Errorf("%s: warm races %d != cold races %d",
				cold[i].Model, warm[i].RaceCount, cold[i].RaceCount)
		}
	}
	hits, misses, _ := cache.Stats()
	if misses == 0 || hits == 0 {
		t.Errorf("cache totals hits=%d misses=%d: want a cold and a warm run recorded", hits, misses)
	}
}

// TestCacheCrossModeVerdicts: the verdict cache cannot tell the ingestion
// modes apart. Verdicts sealed by VerifyAll on a directory are all hits for
// VerifyAllStream on the same directory and vice versa, and after an append
// both modes re-verify against a sealed store with identical hit, miss and
// dirty-chunk counts — whichever mode sealed it. That pins equal block
// chains (materialized trace.BlockChain vs the streamed pass's ChainBuilder)
// and equal unlink positions across the two record sources.
func TestCacheCrossModeVerdicts(t *testing.T) {
	baseDir, appDir := t.TempDir(), t.TempDir()
	base := corpus.ScalingTrace(appendRanks, appendOps, appendWindow, appendSeed)
	app := corpus.ScalingTraceAppend(appendRanks, appendOps, appendExtra, appendWindow, appendSeed)
	for dir, tr := range map[string]*trace.Trace{baseDir: base, appDir: app} {
		if err := trace.WriteDir(dir, tr, trace.DefaultEncodeOptions()); err != nil {
			t.Fatal(err)
		}
	}
	modes := []struct {
		name string
		run  func(dir string, opts *Options) ([]*Report, error)
	}{
		{"materialized", func(dir string, opts *Options) ([]*Report, error) {
			tr, err := ReadTraceDir(dir)
			if err != nil {
				return nil, err
			}
			return VerifyAll(tr, opts)
		}},
		{"stream", func(dir string, opts *Options) ([]*Report, error) {
			reps, _, err := VerifyAllStream(dir, ReadOptions{}, opts)
			return reps, err
		}},
	}
	run := func(mode int, dir string, cache *Cache) []*Report {
		t.Helper()
		reps, err := modes[mode].run(dir, &Options{Workers: 2, Cache: cache, CacheID: "cross-mode"})
		if err != nil {
			t.Fatalf("%s %s: %v", modes[mode].name, dir, err)
		}
		return reps
	}
	stats := func(reps []*Report) string {
		var b bytes.Buffer
		for _, rep := range reps {
			fmt.Fprintf(&b, "%s %+v; ", rep.Model, *rep.Cache)
		}
		return b.String()
	}

	var dirty []string
	for seal := range modes {
		for other := range modes {
			cache := NewMemoryCache()
			cold := run(seal, baseDir, cache)
			warm := run(other, baseDir, cache)
			for i := range warm {
				if cold[i].Cache.Misses == 0 || warm[i].Cache.Misses != 0 || warm[i].Cache.Hits != cold[i].Cache.Misses {
					t.Errorf("sealed by %s, re-verified by %s: %s: cold %+v, warm %+v — want every sealed chunk a hit",
						modes[seal].name, modes[other].name, warm[i].Model, *cold[i].Cache, *warm[i].Cache)
				}
			}
			dirty = append(dirty, stats(run(other, appDir, cache)))
			t.Logf("sealed by %s, appended re-verify by %s: %s", modes[seal].name, modes[other].name, dirty[len(dirty)-1])
		}
	}
	for i := 1; i < len(dirty); i++ {
		if dirty[i] != dirty[0] {
			t.Errorf("appended re-verify cache stats differ across modes:\n%s\nvs\n%s", dirty[i], dirty[0])
		}
	}
	if !strings.Contains(dirty[0], "DirtyChunks:") || strings.Contains(dirty[0], "DirtyChunks:0") {
		t.Errorf("appended re-verify charged no dirty chunks (test is vacuous): %s", dirty[0])
	}
}
