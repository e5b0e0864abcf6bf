package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"verifyio"
	"verifyio/internal/corpus"
	"verifyio/internal/trace"
)

// TestMain lets the test binary serve as its own child process: run stages
// inputs and measures by re-executing os.Executable with -stage or -measure.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "-stage" || os.Args[1] == "-measure") {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// readTree returns every file under dir, keyed by relative path.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		out[rel] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestStagingIsDeterministicPerSeed(t *testing.T) {
	for _, w := range []string{"shared-file-dense", "append-reverify"} {
		t.Run(w, func(t *testing.T) {
			root := t.TempDir()
			trees := map[string]map[string][]byte{}
			for _, run := range []struct {
				name string
				seed int64
			}{{"a", 7}, {"b", 7}, {"c", 8}} {
				dir := filepath.Join(root, run.name)
				if _, err := stage(w, run.seed, dir, false); err != nil {
					t.Fatal(err)
				}
				trees[run.name] = readTree(t, dir)
			}
			if len(trees["a"]) == 0 {
				t.Fatal("staging wrote no files")
			}
			if !reflect.DeepEqual(trees["a"], trees["b"]) {
				t.Error("the same seed staged different trace directories")
			}
			for name, b := range trees["a"] {
				if bytes.Equal(b, trees["c"][name]) {
					t.Errorf("%s: seeds 7 and 8 staged identical files", name)
				}
			}
		})
	}
	if reflect.DeepEqual(corpusOrder(7), corpusOrder(8)) || !reflect.DeepEqual(corpusOrder(7), corpusOrder(7)) {
		t.Error("corpus order must be a function of the seed")
	}
}

func TestAppendGenerationsSharePrefix(t *testing.T) {
	for k := 0; k <= appendSteps; k++ {
		ops := appendGenOps(k)
		if alignedAppendOps(ops) != ops {
			t.Fatalf("generation %d: %d ops leave the prefix unaligned; alignedAppendOps gives %d", k, ops, alignedAppendOps(ops))
		}
		if k > 0 && ops-appendGenOps(k-1) < appendExtra {
			t.Fatalf("generation %d adds %d ops, want at least %d", k, ops-appendGenOps(k-1), appendExtra)
		}
	}
	if got := alignedAppendOps(7900); got != 7942 {
		t.Errorf("alignedAppendOps(7900) = %d, want 7942 (8192-record prefix)", got)
	}
	const ranks, ops, extra = 3, 1000, 40
	prefix := func(k int) int { n := ops + k*extra; return 2 + n + 2*(n/64) }
	prev := corpus.ScalingTraceAppend(ranks, ops, 0, appendWindow, 1)
	for k := 1; k <= 3; k++ {
		cur := corpus.ScalingTraceAppend(ranks, ops, k*extra, appendWindow, 1)
		for r := 0; r < ranks; r++ {
			n := prefix(k - 1)
			if len(cur.Ranks[r]) <= n {
				t.Fatalf("gen %d rank %d: %d records, want more than the shared %d", k, r, len(cur.Ranks[r]), n)
			}
			if !reflect.DeepEqual(cur.Ranks[r][:n], prev.Ranks[r][:n]) {
				t.Errorf("gen %d rank %d: first %d records differ from gen %d", k, r, n, k-1)
			}
		}
		prev = cur
	}
}

// TestScalingReferenceMatchesUnprunedVerifier pins the independent Def. 6
// count to the verifier's literal pair-by-pair evaluation (pruning off) on
// small traces of each synthetic shape.
func TestScalingReferenceMatchesUnprunedVerifier(t *testing.T) {
	for _, c := range []struct {
		ranks, ops, extra int
		window            int64
	}{{4, 300, 0, 1 << 10}, {8, 700, 0, 1 << 12}, {3, 200, 30, 1 << 9}, {8, 2000, 0, 1 << 16}} {
		tr := corpus.ScalingTraceAppend(c.ranks, c.ops, c.extra, c.window, 3)
		dir := filepath.Join(t.TempDir(), "trace")
		if err := trace.WriteDir(dir, tr, trace.DefaultEncodeOptions()); err != nil {
			t.Fatal(err)
		}
		want, err := scalingReference(tr)
		if err != nil {
			t.Fatal(err)
		}
		vt, err := verifyio.ReadTraceDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		reps, err := verifyio.VerifyAll(vt, &verifyio.Options{DisablePruning: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := verdictOf(reps); got != want {
			t.Errorf("%+v: unpruned verifier %+v, reference %+v", c, got, want)
		}
	}
}

func TestReadFig4(t *testing.T) {
	fig4, err := readFig4(filepath.Join("..", "results", "fig4.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fig4) != len(verifyio.CorpusTests()) {
		t.Fatalf("%d rows, want %d", len(fig4), len(verifyio.CorpusTests()))
	}
	unmatched := 0
	for _, e := range fig4 {
		if e.Unmatched {
			unmatched++
		}
	}
	if unmatched != 3 {
		t.Errorf("%d unmatched rows, want 3", unmatched)
	}
	if e := fig4["flexible"]; e != (Expect{Pairs: 3, Races: [4]int64{0, 3, 3, 3}}) {
		t.Errorf("flexible = %+v", e)
	}
}

func TestLayerTableSumsToTracedWall(t *testing.T) {
	r := newRecorder()
	for i := 0; i < 3; i++ {
		r.begin("root", rootLayer)
		r.begin("a", "trace.read")
		r.begin("a1", "conflict.detect")
		time.Sleep(time.Millisecond)
		r.end()
		r.end()
		time.Sleep(time.Millisecond)
		r.begin("b", "verify.models")
		r.end()
		r.end()
	}
	r.begin("lone", "vcache.open")
	r.end()
	self, wall := layerTable(r.spans)
	var sum time.Duration
	for _, d := range self {
		if d < 0 {
			t.Errorf("negative self time in %v", self)
		}
		sum += d
	}
	if sum != wall {
		t.Errorf("layer self times sum to %v, traced wall is %v", sum, wall)
	}
	if self[rootLayer] < 3*time.Millisecond {
		t.Errorf("unattributed %v, want at least the 3 ms slept in the roots", self[rootLayer])
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func keys(ms map[string]metric) []string {
	var out []string
	for k := range ms {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestRunReportsDeclaredMetrics runs the corpus workload end to end, plain
// and traced, and checks the reported metrics against BENCHMARK.json.
func TestRunReportsDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, traced := range []bool{false, true} {
		res, err := run("corpus-91", 1, 100*time.Millisecond, traced, "")
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("traced=%t: correct=%t attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		sort.Strings(want)
		if got := keys(res.Metrics); !reflect.DeepEqual(got, want) {
			t.Errorf("traced=%t: metrics %v, BENCHMARK.json declares %v", traced, got, want)
		}
		for k, m := range res.Metrics {
			if !name.MatchString(k) {
				t.Errorf("metric name %q does not match %s", k, name)
			}
			if m.Unit == "" {
				t.Errorf("metric %q has no unit", k)
			}
		}
		if traced && res.Metrics["bench.attributed_frac"].Value < 0.95 {
			t.Errorf("traced run attributes %.3f of its wall to layer calls, want ≥ 0.95", res.Metrics["bench.attributed_frac"].Value)
		}
	}
}

func TestRecordRefusedBelowTwoProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	path := filepath.Join(t.TempDir(), "baseline.json")
	_, err := run("corpus-91", 1, time.Millisecond, false, path)
	if err == nil || !strings.Contains(err.Error(), "GOMAXPROCS=1") {
		t.Fatalf("run at GOMAXPROCS=1 with a baseline file: err = %v, want the refusal", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("baseline file written: %v", err)
	}
}
