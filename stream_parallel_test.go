package verifyio

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"verifyio/internal/corpus"
	"verifyio/internal/obs"
	"verifyio/internal/trace"
	"verifyio/internal/verify"
)

// TestStreamRankParallelEquivalence: the rank-parallel fused pass yields
// reports byte-identical to the materialized analysis at workers 1, 2 and
// 7, on every corpus trace, with a window small enough that every rank
// splits into many batches.
func TestStreamRankParallelEquivalence(t *testing.T) {
	for _, name := range corpus.Names() {
		tr := corpusTraceT(t, name)
		dir := filepath.Join(t.TempDir(), "trace")
		if err := trace.WriteDir(dir, tr, trace.DefaultEncodeOptions()); err != nil {
			t.Fatal(err)
		}
		ma, err := verify.AnalyzeOpts(tr, verify.AlgoAuto, verify.AnalyzeOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s: analyze: %v", name, err)
		}
		want := verifyAllReports(t, ma, 1)
		for _, workers := range []int{1, 2, 7} {
			sa, err := verify.AnalyzeStream(dir, verify.AlgoAuto, verify.StreamAnalyzeOptions{
				AnalyzeOptions: verify.AnalyzeOptions{Workers: workers},
				WindowBytes:    streamEquivWindow,
			})
			if err != nil {
				t.Fatalf("%s workers=%d: analyze stream: %v", name, workers, err)
			}
			got := verifyAllReports(t, sa, workers)
			for i := range want {
				if w, g := reportFingerprint(t, want[i]), reportFingerprint(t, got[i]); !bytes.Equal(w, g) {
					t.Errorf("%s model=%s workers=%d: streamed report differs\nmaterialized: %s\nstreamed:     %s",
						name, want[i].Model, workers, w, g)
				}
			}
		}
	}
}

// workerDependentMetric names the stable metrics that are deterministic at
// a fixed worker count but defined in terms of it: pool task counts, the
// sweep's transpose histograms (one per worker range), and the decode peak
// (the summed peaks of the ranks decoding at once: min(workers, ranks) of
// them).
func workerDependentMetric(name string) bool {
	return strings.HasPrefix(name, "par.") || name == "conflict.sweep_scratch_bytes" ||
		name == "decode.peak_resident_bytes"
}

// TestStreamStableMetricsAcrossWorkers: a streamed VerifyAll publishes the
// same stable metrics at workers 1 and 4, apart from the worker-dependent
// ones, and those are identical across repeated runs at one worker count.
// Workers beyond the rank count leave the decode peak unchanged.
func TestStreamStableMetricsAcrossWorkers(t *testing.T) {
	tr := corpusTraceT(t, "pmulti_dset")
	dir := filepath.Join(t.TempDir(), "trace")
	if err := trace.WriteDir(dir, tr, trace.DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	stable := func(workers int) *obs.Section {
		tel := NewTelemetry()
		if _, _, err := VerifyAllStream(dir, ReadOptions{Telemetry: tel, WindowBytes: streamEquivWindow},
			&Options{Workers: workers, Telemetry: tel}); err != nil {
			t.Fatal(err)
		}
		snap := tel.registry.Snapshot()
		return &snap.Stable
	}
	one, four, again := stable(1), stable(4), stable(4)
	if !reflect.DeepEqual(four, again) {
		t.Fatalf("stable metrics differ between two runs at workers=4:\n%+v\n%+v", four, again)
	}
	for _, sec := range []*obs.Section{one, four} {
		for name := range sec.Counters {
			if workerDependentMetric(name) {
				delete(sec.Counters, name)
			}
		}
		for name := range sec.Gauges {
			if workerDependentMetric(name) {
				delete(sec.Gauges, name)
			}
		}
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("stable metrics differ between workers=1 and workers=4:\n%+v\n%+v", one, four)
	}
	n := tr.NumRanks()
	atRanks := stable(n).Gauges["decode.peak_resident_bytes"]
	if past := stable(n + 3).Gauges["decode.peak_resident_bytes"]; atRanks <= 0 || past != atRanks {
		t.Fatalf("decode.peak_resident_bytes = %d at workers=%d, %d at workers=%d: want equal and positive",
			atRanks, n, past, n+3)
	}
}

// TestStreamPeakWithinWindowAtWorkers4: four ranks decoding at once each
// get a quarter of a 64 KiB window, so the summed peak of the fused pass
// stays within twice the window on a multi-rank trace far larger than it.
func TestStreamPeakWithinWindowAtWorkers4(t *testing.T) {
	const window = 64 << 10
	dir := filepath.Join(t.TempDir(), "scaling")
	if err := corpus.WriteScalingDir(dir, 6, 4000, 1<<20, 3, trace.DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	a, err := verify.AnalyzeStream(dir, verify.AlgoAuto, verify.StreamAnalyzeOptions{
		AnalyzeOptions: verify.AnalyzeOptions{Workers: 4, Obs: obs.Ctx{R: reg}},
		WindowBytes:    window,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	peak, win := snap.Stable.Gauges["decode.peak_resident_bytes"], snap.Stable.Gauges["decode.window_bytes"]
	if win != window {
		t.Fatalf("decode.window_bytes = %d, want %d", win, window)
	}
	if peak <= 0 || peak > 2*window {
		t.Fatalf("decode.peak_resident_bytes = %d, want in (0, %d]", peak, 2*window)
	}
	if a.NumRecords()*64 < 10*window {
		t.Fatalf("trace of %d records is too small to exercise the window", a.NumRecords())
	}
}

// raceDetailTrace writes a 4-rank trace in which only ranks 0 and 2 race
// (unsynchronized overlapping writes on one file); ranks 1 and 3 write a
// file of their own each.
func raceDetailTrace(t *testing.T) (string, *trace.Trace) {
	t.Helper()
	tr := trace.New(4)
	for rank := 0; rank < 4; rank++ {
		path := "/shared"
		if rank%2 == 1 {
			path = fmt.Sprintf("/own-%d", rank)
		}
		tr.Append(trace.Record{Rank: rank, Func: "open", Layer: trace.LayerPOSIX,
			Args: []string{path, "rw|creat", "3"}, Tick: 1, Ret: 2})
		for i := 0; i < 40; i++ {
			tr.Append(trace.Record{Rank: rank, Func: "pwrite", Layer: trace.LayerPOSIX,
				Args: []string{"3", "8", fmt.Sprint(8 * i)}, Tick: int64(3 + 2*i), Ret: int64(4 + 2*i)})
		}
		tr.Append(trace.Record{Rank: rank, Func: "close", Layer: trace.LayerPOSIX,
			Args: []string{"3"}, Tick: 100, Ret: 101})
	}
	dir := filepath.Join(t.TempDir(), "trace")
	if err := trace.WriteDir(dir, tr, trace.DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	return dir, tr
}

// TestVerifyAllStreamRaceDetailsOneRedecode: the four model passes share one
// race-detail re-decode, which opens only the ranks holding a raced record
// and decodes each of them once.
func TestVerifyAllStreamRaceDetailsOneRedecode(t *testing.T) {
	dir, tr := raceDetailTrace(t)
	for _, workers := range []int{1, 4} {
		tel := NewTelemetry()
		reps, _, err := VerifyAllStream(dir, ReadOptions{}, &Options{Workers: workers, Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range reps {
			if rep.RaceCount == 0 || len(rep.Races) == 0 {
				t.Fatalf("workers=%d model %s: no races on the racy trace", workers, rep.Model)
			}
			for _, race := range rep.Races {
				if race.RankX%2 != 0 || race.RankY%2 != 0 || len(race.ChainX) == 0 {
					t.Fatalf("workers=%d model %s: unexpected race detail %+v", workers, rep.Model, race)
				}
			}
		}
		events := tel.tracer.Events()
		details := map[string]bool{}
		for _, e := range events {
			if e.Name == "race-details" {
				details[e.Args["id"]] = true
			}
		}
		if len(details) != 1 {
			t.Fatalf("workers=%d: %d race-detail re-decodes, want exactly 1", workers, len(details))
		}
		var opened []string
		for _, e := range events {
			if e.Name == "read-rank" && details[e.Args["parent"]] {
				opened = append(opened, e.Args["rank"])
			}
		}
		if !reflect.DeepEqual(opened, []string{"0", "2"}) && !reflect.DeepEqual(opened, []string{"2", "0"}) {
			t.Fatalf("workers=%d: race details opened ranks %v, want only 0 and 2", workers, opened)
		}
		// Every pwrite races, so the one re-decode reads each raced rank
		// through its last pwrite (all but the final close).
		want := int64(len(tr.Ranks[0]) - 1 + len(tr.Ranks[2]) - 1)
		if got := tel.registry.Snapshot().Stable.Counters["verify.race_redecode_records"]; got != want {
			t.Fatalf("workers=%d: verify.race_redecode_records = %d, want %d", workers, got, want)
		}
	}
}

// TestAnalyzeStreamStrictErrorNamesLowestRank: with several damaged rank
// files decoding at once, the analysis reports the lowest one's error with
// the sequential decoder's text.
func TestAnalyzeStreamStrictErrorNamesLowestRank(t *testing.T) {
	dir, _ := raceDetailTrace(t)
	for _, rank := range []int{1, 3} {
		path := filepath.Join(dir, fmt.Sprintf("rank-%d.viot", rank))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, readErr := trace.ReadDirWithOptions(dir, trace.DecodeOptions{})
	if readErr == nil || !strings.Contains(readErr.Error(), "rank-1.viot") {
		t.Fatalf("ReadDir error = %v, want rank 1's", readErr)
	}
	for _, workers := range []int{1, 4} {
		_, err := verify.AnalyzeStream(dir, verify.AlgoAuto, verify.StreamAnalyzeOptions{
			AnalyzeOptions: verify.AnalyzeOptions{Workers: workers},
		})
		if want := "verify: read trace: " + readErr.Error(); err == nil || err.Error() != want {
			t.Fatalf("workers=%d: error %v, want %s", workers, err, want)
		}
	}
}
