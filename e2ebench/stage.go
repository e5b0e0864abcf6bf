package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"verifyio"
	"verifyio/internal/corpus"
	"verifyio/internal/trace"
)

// Workload geometry. The sizes come from runs on a 2-core machine; see
// README.md for the sizing notes.
const (
	denseRanks  = 8
	denseOps    = 3000
	denseWindow = int64(8 << 10)

	streamRanks  = 8
	streamOps    = 20_000
	streamWindow = int64(1 << 30)

	appendRanks  = 6
	appendOps    = 10052 // alignedAppendOps(10000): the base prefix is 10368 = 162·64 records per rank
	appendWindow = int64(160 << 10)
	// appendSteps appends are re-verified after the cold base; see
	// appendGenOps for their sizes.
	appendSteps = 3
	appendExtra = 100
	appendID    = "e2ebench/append"
)

// expectFile names the staged reference verdicts, keyed by trace directory.
const expectFile = "expect.json"

// Staged is what staging leaves next to the trace directories: for each
// synthetic directory, the Def. 6 truth counted independently of the
// verifier (Truth) and the verdict the program gives through a second path
// (Cross) — the other ingestion mode for the single-trace workloads, a run
// without verdict cache for append-reverify.
type Staged struct {
	Truth map[string]Expect `json:"truth,omitempty"`
	Cross map[string]Expect `json:"cross,omitempty"`
}

// alignedAppendOps returns the smallest op count ≥ ops whose per-rank
// shared prefix, 2 + ops + 2⌊ops/64⌋ records (corpus.ScalingTraceAppend),
// is a multiple of trace.DigestBlock. The verdict cache certifies a prefix
// block by block, so an unaligned prefix leaves its last partial block —
// and every chunk that digests it — dirty on the first append.
func alignedAppendOps(ops int) int {
	for ; (2+ops+2*(ops/64))%trace.DigestBlock != 0; ops++ {
	}
	return ops
}

// appendGenOps returns the operations per rank of append generation k
// (0 = base): each generation adds at least appendExtra operations (about
// 1% of appendOps) to the one before and is rounded up by alignedAppendOps,
// so the prefix every generation shares with the next is block-aligned.
func appendGenOps(k int) int {
	ops := appendOps
	for ; k > 0; k-- {
		ops = alignedAppendOps(ops + appendExtra)
	}
	return ops
}

// appendGenDir names the trace directory of append generation k (0 = base).
func appendGenDir(k int) string { return fmt.Sprintf("gen-%d", k) }

// corpusOrder is the per-seed verification order of the corpus tests: the
// corpus has no generator seed of its own, so the seed shuffles the order.
func corpusOrder(seed int64) []string {
	names := verifyio.CorpusTests()
	rand.New(rand.NewSource(seed)).Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}

// stage writes the workload's trace directories under dir and returns the
// time that took: generating and encoding only. With reference set it then
// computes the reference verdicts into dir/expect.json, untimed.
func stage(workload string, seed int64, dir string, reference bool) (time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	start := time.Now()
	var err error
	switch workload {
	case "shared-file-dense":
		err = trace.WriteDir(filepath.Join(dir, "trace"), corpus.ScalingTrace(denseRanks, denseOps, denseWindow, seed), trace.DefaultEncodeOptions())
	case "stream-sparse-large":
		err = corpus.WriteScalingDir(filepath.Join(dir, "trace"), streamRanks, streamOps, streamWindow, seed, trace.DefaultEncodeOptions())
	case "corpus-91":
		for _, name := range verifyio.CorpusTests() {
			var tr *verifyio.Trace
			if tr, err = verifyio.RunCorpusTest(name); err != nil {
				break
			}
			if err = tr.WriteDir(filepath.Join(dir, name)); err != nil {
				break
			}
		}
	case "append-reverify":
		for k := 0; k <= appendSteps && err == nil; k++ {
			tr := corpus.ScalingTraceAppend(appendRanks, appendOps, appendGenOps(k)-appendOps, appendWindow, seed)
			err = trace.WriteDir(filepath.Join(dir, appendGenDir(k)), tr, trace.DefaultEncodeOptions())
		}
	default:
		return 0, fmt.Errorf("unknown workload %q", workload)
	}
	elapsed := time.Since(start)
	if err != nil || !reference || workload == "corpus-91" {
		return elapsed, err
	}
	st, err := referenceVerdicts(workload, dir)
	if err != nil {
		return 0, err
	}
	b, err := json.Marshal(st)
	if err != nil {
		return 0, err
	}
	return elapsed, os.WriteFile(filepath.Join(dir, expectFile), b, 0o644)
}

// syntheticDirs lists a synthetic workload's trace directories.
func syntheticDirs(workload string) []string {
	if workload != "append-reverify" {
		return []string{"trace"}
	}
	var dirs []string
	for k := 0; k <= appendSteps; k++ {
		dirs = append(dirs, appendGenDir(k))
	}
	return dirs
}

// referenceVerdicts computes Staged for a synthetic workload from its
// staged directories. It runs in the staging process, so the materialized
// traces it needs never count toward the measuring process's peak RSS.
func referenceVerdicts(workload, dir string) (*Staged, error) {
	st := &Staged{Truth: map[string]Expect{}, Cross: map[string]Expect{}}
	for _, name := range syntheticDirs(workload) {
		path := filepath.Join(dir, name)
		tr, err := trace.ReadDir(path)
		if err != nil {
			return nil, err
		}
		if st.Truth[name], err = scalingReference(tr); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		tr = nil
		runtime.GC()
		var reps []*verifyio.Report
		if workload == "shared-file-dense" {
			reps, _, err = verifyio.VerifyAllStream(path, verifyio.ReadOptions{}, nil)
		} else {
			var vt *verifyio.Trace
			if vt, err = verifyio.ReadTraceDir(path); err == nil {
				reps, err = verifyio.VerifyAll(vt, nil)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%s: cross-check verification: %w", name, err)
		}
		st.Cross[name] = verdictOf(reps)
	}
	return st, nil
}

// verdictOf extracts the checked part of a VerifyAll result.
func verdictOf(reps []*verifyio.Report) Expect {
	var e Expect
	for i, r := range reps {
		if i < len(e.Races) {
			e.Races[i] = r.RaceCount
		}
		e.Pairs = r.ConflictPairs
		e.Unmatched = e.Unmatched || !r.Verified
	}
	return e
}

// readStaged loads expect.json from a staged directory.
func readStaged(dir string) (*Staged, error) {
	b, err := os.ReadFile(filepath.Join(dir, expectFile))
	if err != nil {
		return nil, err
	}
	st := &Staged{}
	if err := json.Unmarshal(b, st); err != nil {
		return nil, fmt.Errorf("%s: %w", expectFile, err)
	}
	return st, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
