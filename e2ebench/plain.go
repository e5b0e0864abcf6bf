package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"verifyio"
)

// maxAppendMissShare bounds an append step's cache misses as a share of the
// cold step's. An append of about 1% of the operations re-verified 0.1–5.5%
// of the cold step's chunks over seeds 401–412; a base prefix that is not
// block-aligned dirtied 15% on the first append.
const maxAppendMissShare = 0.10

// bench is one measuring process: the staged inputs of one workload, the
// references its verdicts are checked against, and the process's tallies.
type bench struct {
	workload string
	dir      string // staged root
	order    []string
	staged   *Staged
	fig4     map[string]Expect
	tally

	out    bytes.Buffer // rendered reports of the current verification
	caches int          // cache directories created so far
}

// tally counts a measuring process's verifications. A plain run's measuring
// processes send theirs to the parent as JSON.
type tally struct {
	Attempted, Failed int
	// TruthMismatches counts Session/MPI-IO verdicts that differ from the
	// independently counted Def. 6 truth; see README.md, "Known defect".
	TruthMismatches int
	FirstErr        string
	// MaxMissShare is the largest append step's cache misses as a share of
	// its cold step's.
	MaxMissShare float64
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.TruthMismatches += o.TruthMismatches
	if t.FirstErr == "" {
		t.FirstErr = o.FirstErr
	}
	t.MaxMissShare = max(t.MaxMissShare, o.MaxMissShare)
}

func newBench(workload, dir string, seed int64) (*bench, error) {
	b := &bench{workload: workload, dir: dir}
	var err error
	if workload == "corpus-91" {
		b.order = corpusOrder(seed)
		b.fig4, err = readFig4(filepath.Join("results", "fig4.txt"))
		if err == nil && len(b.fig4) != len(b.order) {
			err = fmt.Errorf("results/fig4.txt has %d tests, the corpus %d", len(b.fig4), len(b.order))
		}
		return b, err
	}
	b.order = syntheticDirs(workload)
	b.staged, err = readStaged(dir)
	return b, err
}

// record books one verification: err is its failure, if any.
func (b *bench) record(name string, err error) {
	b.Attempted++
	if err != nil {
		b.Failed++
		if b.FirstErr == "" {
			b.FirstErr = fmt.Sprintf("%s: %v", name, err)
		}
	}
}

// verdictError checks one verification's verdicts against the references:
// results/fig4.txt for the corpus; for the synthetic traces, the verdict of
// the second path (other ingestion mode or no cache) on all four models,
// and the independent Def. 6 truth on the conflict count and the POSIX and
// Commit models.
func (b *bench) verdictError(name string, got Expect) error {
	if b.fig4 != nil {
		want, ok := b.fig4[name]
		switch {
		case !ok:
			return fmt.Errorf("no results/fig4.txt row")
		case want.Unmatched && !got.Unmatched:
			return fmt.Errorf("verified, want unmatched")
		case !want.Unmatched && got != want:
			return fmt.Errorf("verdict %+v, results/fig4.txt %+v", got, want)
		}
		return nil
	}
	if cross := b.staged.Cross[name]; got != cross {
		return fmt.Errorf("verdict %+v, second path %+v", got, cross)
	}
	truth := b.staged.Truth[name]
	if got.Unmatched || got.Pairs != truth.Pairs || got.Races[0] != truth.Races[0] || got.Races[1] != truth.Races[1] {
		return fmt.Errorf("verdict %+v, Def. 6 truth %+v", got, truth)
	}
	for m := 2; m < 4; m++ {
		if got.Races[m] != truth.Races[m] {
			b.TruthMismatches++
		}
	}
	return nil
}

// verifyDir is the user's path for one trace directory: verify it against
// the four models (materialized or streamed) and render every report.
func (b *bench) verifyDir(name string, opts *verifyio.Options) ([]*verifyio.Report, error) {
	path := filepath.Join(b.dir, name)
	var reps []*verifyio.Report
	var err error
	if b.workload == "stream-sparse-large" {
		reps, _, err = verifyio.VerifyAllStream(path, verifyio.ReadOptions{}, opts)
	} else {
		var tr *verifyio.Trace
		if tr, err = verifyio.ReadTraceDir(path); err == nil {
			reps, err = verifyio.VerifyAll(tr, opts)
		}
	}
	if err != nil {
		return nil, err
	}
	b.out.Reset()
	for _, r := range reps {
		r.Render(&b.out)
	}
	if b.out.Len() == 0 {
		return nil, fmt.Errorf("empty rendered reports")
	}
	return reps, nil
}

// unit runs the workload's unit of work once at the given worker count and
// returns its wall time plus the latency of each verification in it. A
// unit is one directory, one pass over the corpus, or, for append-reverify,
// a cold verification into a fresh on-disk cache followed by every append
// step. runtime.GC runs before each verification, outside the timing.
func (b *bench) unit(workers int) (total time.Duration, lat []time.Duration) {
	opts := &verifyio.Options{Workers: workers}
	if b.workload == "append-reverify" {
		b.caches++
		dir := filepath.Join(b.dir, fmt.Sprintf("cache-%d", b.caches))
		defer os.RemoveAll(dir)
		start := time.Now()
		c, err := verifyio.OpenCache(dir)
		total += time.Since(start)
		if err != nil {
			b.record("cache", err)
			return total, nil
		}
		opts.Cache, opts.CacheID = c, appendID
		defer func() {
			start := time.Now()
			if err := c.Close(); err != nil {
				b.record("cache", err)
			}
			total += time.Since(start)
		}()
	}
	var coldMisses int64
	for step, name := range b.order {
		runtime.GC()
		start := time.Now()
		reps, err := b.verifyDir(name, opts)
		d := time.Since(start)
		total += d
		lat = append(lat, d)
		if err == nil {
			err = b.verdictError(name, verdictOf(reps))
		}
		if err == nil && opts.Cache != nil {
			var misses int64
			misses, err = cacheGate(reps, step, coldMisses)
			if step == 0 {
				coldMisses = misses
			} else if coldMisses > 0 {
				b.MaxMissShare = max(b.MaxMissShare, float64(misses)/float64(coldMisses))
			}
		}
		b.record(name, err)
	}
	return total, lat
}

// cacheGate checks one append-reverify step's cache counters: every append
// step hits, and re-verifies no more than maxAppendMissShare of the chunks
// the cold step verified. It returns the step's misses.
func cacheGate(reps []*verifyio.Report, step int, coldMisses int64) (int64, error) {
	var hits, misses int64
	for _, r := range reps {
		if r.Cache == nil {
			return 0, fmt.Errorf("%s: report carries no cache statistics", r.Model)
		}
		hits += r.Cache.Hits
		misses += r.Cache.Misses
	}
	if step == 0 {
		return misses, nil
	}
	if hits == 0 {
		return misses, fmt.Errorf("append step %d: no cache hits", step)
	}
	if float64(misses) > maxAppendMissShare*float64(coldMisses) {
		return misses, fmt.Errorf("append step %d: %d misses, over %.0f%% of the cold step's %d",
			step, misses, 100*maxAppendMissShare, coldMisses)
	}
	return misses, nil
}

// samples is what one measuring process of a plain run measured: unit
// wall times in seconds at workers = GOMAXPROCS (Par) and 1 (Ser), the
// latency in milliseconds of every verification in the Par units, and the
// peak resident set in bytes of each Par unit.
type samples struct {
	Par, Ser, LatMS, Peaks []float64
	tally
}

func (s *samples) add(o *samples) {
	s.Par = append(s.Par, o.Par...)
	s.Ser = append(s.Ser, o.Ser...)
	s.LatMS = append(s.LatMS, o.LatMS...)
	s.Peaks = append(s.Peaks, o.Peaks...)
	s.tally.add(o.tally)
}

// measure is one measuring process of a plain run: after a warm-up unit,
// units alternate between workers = GOMAXPROCS and workers = 1, which runs
// first alternating per round, until the deadline has passed and at least
// one round ran. The peak resident set is taken per workers = GOMAXPROCS
// unit: the kernel's peak counter is reset at the start of the unit and
// read at its end.
func measure(b *bench, deadline time.Time) (*samples, error) {
	nproc := runtime.GOMAXPROCS(0)
	// One unmeasured unit first: the heap grows to its working size and the
	// staged files enter the page cache.
	b.unit(nproc)
	s := &samples{}
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		order := []int{nproc, 1}
		if round%2 == 1 {
			order[0], order[1] = 1, nproc
		}
		for i, w := range order {
			timed := w == nproc && (nproc > 1 || i == 0)
			if timed {
				if err := resetPeakRSS(); err != nil {
					return nil, err
				}
			}
			d, lat := b.unit(w)
			if !timed {
				s.Ser = append(s.Ser, d.Seconds())
				continue
			}
			s.Par = append(s.Par, d.Seconds())
			for _, l := range lat {
				s.LatMS = append(s.LatMS, float64(l)/float64(time.Millisecond))
			}
			peak, err := peakRSS()
			if err != nil {
				return nil, err
			}
			s.Peaks = append(s.Peaks, float64(peak))
		}
	}
	s.tally = b.tally
	return s, nil
}

// measureProcesses is how many fresh processes a plain run measures in, one
// after another, each for an equal share of the budget. A process tends to
// keep the speed it starts with: on a 2-core host the medians of
// single-process runs at workers = 1 fell into two levels about 30% apart,
// by process, while workers = 2 in the same processes did not. Pooling the
// samples of several processes averages that out.
const measureProcesses = 4

// plainRun is the untraced measurement. It runs measure in
// measureProcesses child processes over the staged input and reports the
// medians of their pooled samples.
func plainRun(workload, input string, seed int64, budget time.Duration) (map[string]metric, tally, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, tally{}, err
	}
	all := &samples{}
	var parMedians, serMedians []float64
	start := time.Now()
	for k := 1; k <= measureProcesses; k++ {
		deadline := start.Add(budget * time.Duration(k) / measureProcesses)
		cmd := exec.Command(self, "-measure", input, "-workload", workload,
			"-seed", strconv.FormatInt(seed, 10), "-until", strconv.FormatInt(deadline.UnixNano(), 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, tally{}, fmt.Errorf("measuring process %d: %w", k, err)
		}
		s := &samples{}
		if err := json.Unmarshal(out, s); err != nil {
			return nil, tally{}, fmt.Errorf("measuring process %d: %w", k, err)
		}
		all.add(s)
		parMedians = append(parMedians, median(s.Par))
		serMedians = append(serMedians, median(s.Ser))
	}
	fmt.Printf("# samples: %d processes; latency %d verifications; wall_s %d, per-process medians %.4f; wall_serial_s %d, per-process medians %.4f\n",
		measureProcesses, len(all.LatMS), len(all.Par), parMedians, len(all.Ser), serMedians)
	return map[string]metric{
		"wall_s":         {median(all.Par), "s"},
		"wall_serial_s":  {median(all.Ser), "s"},
		"latency_p50_ms": {quantile(all.LatMS, 0.5), "ms"},
		"latency_p90_ms": {quantile(all.LatMS, 0.9), "ms"},
		"peak_rss_bytes": {median(all.Peaks), "bytes"},
	}, all.tally, nil
}
