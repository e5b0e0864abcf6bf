package verify_test

import (
	"testing"

	"verifyio/internal/corpus"
	"verifyio/internal/recorder"
	"verifyio/internal/semantics"
	"verifyio/internal/sim/posixfs"
	"verifyio/internal/trace"
	"verifyio/internal/verify"
)

// pruningFanout is one group with many conflicting ops on the other rank:
// rank 0 writes and commits, a barrier orders the ranks, rank 1 reads the
// written range in 40 slices.
func pruningFanout(t *testing.T) *trace.Trace {
	t.Helper()
	env := recorder.NewEnv(2, recorder.Options{FSMode: posixfs.ModePOSIX})
	err := env.Run(func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		fd, err := r.Open("big.dat", posixfs.ORdwr|posixfs.OCreate)
		if err != nil {
			return err
		}
		if r.Rank() == 0 {
			if _, err := r.Pwrite(fd, make([]byte, 1024), 0); err != nil {
				return err
			}
			if err := r.Fsync(fd); err != nil {
				return err
			}
		}
		if err := r.Barrier(c); err != nil {
			return err
		}
		if r.Rank() == 1 {
			for i := int64(0); i < 40; i++ {
				if _, err := r.Pread(fd, 16, i*16); err != nil {
					return err
				}
			}
		}
		return r.Close(fd)
	})
	if err != nil {
		t.Fatalf("traced program: %v", err)
	}
	return env.Trace()
}

// TestPruningMatchesExhaustive: the Fig. 3 pruning must report exactly the
// race set of the exhaustive pairwise check, with fewer checks, under every
// model. The scaling trace interleaves reads and writes within each rank,
// so its CSR runs mix ops that need only hb to be synchronized with ops
// that need an MSC — runs on which "Y_i ps X" is not monotone as a whole.
func TestPruningMatchesExhaustive(t *testing.T) {
	for _, in := range []struct {
		name string
		tr   *trace.Trace
	}{
		{"fanout", pruningFanout(t)},
		{"mixed-runs", corpus.ScalingTrace(4, 300, 1<<10, 3)},
	} {
		t.Run(in.name, func(t *testing.T) {
			a, err := verify.Analyze(in.tr, verify.AlgoVectorClock)
			if err != nil {
				t.Fatal(err)
			}
			for _, model := range semantics.All() {
				opts := verify.Options{Model: model, MaxRaceDetails: 1 << 30}
				pruned, err := a.Verify(opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.DisablePruning = true
				exhaustive, err := a.Verify(opts)
				if err != nil {
					t.Fatal(err)
				}
				if pruned.RaceCount != exhaustive.RaceCount {
					t.Errorf("%s: pruned %d races vs exhaustive %d", model.Name, pruned.RaceCount, exhaustive.RaceCount)
				}
				want := map[[2]trace.Ref]bool{}
				for _, r := range exhaustive.Races {
					want[[2]trace.Ref{r.X.Ref, r.Y.Ref}] = true
				}
				for _, r := range pruned.Races {
					if !want[[2]trace.Ref{r.X.Ref, r.Y.Ref}] {
						t.Errorf("%s: pruning reports %v-%v, not a race exhaustively", model.Name, r.X.Ref, r.Y.Ref)
					}
				}
				if len(pruned.Races) != len(want) {
					t.Errorf("%s: pruning reports %d distinct races, exhaustive %d", model.Name, len(pruned.Races), len(want))
				}
				if pruned.ChecksPerformed >= exhaustive.ChecksPerformed {
					t.Errorf("%s: pruning performed %d checks, exhaustive %d — no reduction",
						model.Name, pruned.ChecksPerformed, exhaustive.ChecksPerformed)
				}
				t.Logf("%s: %d races, %d checks pruned vs %d exhaustive",
					model.Name, pruned.RaceCount, pruned.ChecksPerformed, exhaustive.ChecksPerformed)
			}
		})
	}
}
