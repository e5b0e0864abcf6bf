package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"verifyio/internal/trace"
)

// modelNames is the report order of VerifyAll and of results/fig4.txt.
var modelNames = []string{"posix", "commit", "session", "mpi-io"}

// Expect is the reference verdict of one trace directory: the conflict
// count and the per-model race counts, in modelNames order. Unmatched marks
// a trace whose MPI matching fails, so no model may report it verified.
type Expect struct {
	Pairs     int64    `json:"pairs"`
	Races     [4]int64 `json:"races"`
	Unmatched bool     `json:"unmatched,omitempty"`
}

// scalingOp is one data operation of a scaling trace as the reference sees
// it: the epoch is the number of MPI_Barrier calls the rank issued before it.
type scalingOp struct {
	off   int64
	end   int64
	rank  int
	epoch int
	write bool
}

// scalingReference counts the races of a corpus.ScalingTrace-shaped trace
// without the verifier: it reads the records directly and sweeps the
// operations by offset. It relies on the generator's construction, which
// makes the truth easy to state:
//
//   - every rank works on one file and synchronizes only with
//     MPI_Barrier on comm-world, so two operations on different ranks are
//     ordered exactly when a barrier separates them (different epochs);
//   - each rank fsyncs before every barrier, so a barrier-ordered pair
//     also has a commit between them, and Commit races equal POSIX races;
//   - a rank opens the file once and closes it once at the end, and no
//     MPI-IO file call exists, so no close-to-open or sync-barrier-sync
//     construct follows a write: under Session and MPI-IO a pair is safe
//     only through Def. 6's read case, a read that happens before the
//     conflicting write, which is a barrier-ordered pair whose earlier
//     operation is the read.
//
// A conflict is two overlapping byte ranges on different ranks with at
// least one write.
func scalingReference(tr *trace.Trace) (Expect, error) {
	var ops []scalingOp
	for rank, recs := range tr.Ranks {
		epoch := 0
		for i := range recs {
			rec := &recs[i]
			switch rec.Func {
			case "MPI_Barrier":
				epoch++
			case "pwrite", "pread":
				if len(rec.Args) < 3 {
					return Expect{}, fmt.Errorf("rank %d seq %d: %s has %d args", rank, i, rec.Func, len(rec.Args))
				}
				size, err1 := strconv.ParseInt(rec.Args[1], 10, 64)
				off, err2 := strconv.ParseInt(rec.Args[2], 10, 64)
				if err1 != nil || err2 != nil {
					return Expect{}, fmt.Errorf("rank %d seq %d: bad %s args %q", rank, i, rec.Func, rec.Args)
				}
				ops = append(ops, scalingOp{off: off, end: off + size, rank: rank, epoch: epoch, write: rec.Func == "pwrite"})
			}
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].off < ops[j].off })
	var all, sameEpoch, writeFirst int64
	for i := range ops {
		x := &ops[i]
		for j := i + 1; j < len(ops) && ops[j].off < x.end; j++ {
			y := &ops[j]
			if y.rank == x.rank || !(x.write || y.write) {
				continue
			}
			all++
			switch {
			case y.epoch == x.epoch:
				sameEpoch++
			case (y.epoch < x.epoch && y.write) || (x.epoch < y.epoch && x.write):
				writeFirst++
			}
		}
	}
	return Expect{Pairs: all, Races: [4]int64{sameEpoch, sameEpoch, sameEpoch + writeFirst, sameEpoch + writeFirst}}, nil
}

// readFig4 parses the committed Fig. 4 table: per test, the conflict count
// and the race count under each model, or "unmatched".
func readFig4(path string) (map[string]Expect, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]Expect)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 7 || fields[0] == "test" {
			continue
		}
		var e Expect
		if fields[2] == "-" {
			e.Unmatched = true
		} else {
			for i, s := range fields[2:] {
				n, err := strconv.ParseInt(s, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("%s: bad count %q in %s", path, s, fields[0])
				}
				if i == 0 {
					e.Pairs = n
				} else {
					e.Races[i-1] = n
				}
			}
		}
		out[fields[0]] = e
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
