// Command e2ebench is VerifyIO's end-to-end benchmark: it stages a
// workload's trace directories from a seed, runs the path a verifyio user
// runs (trace directory → verification under the four Table I models →
// rendered reports) in a closed loop, checks the verdicts, and prints every
// metric by name with its unit. README.md describes the workloads, the
// metrics and how to read a traced run.
//
//	bash e2ebench/run.sh --workload corpus-91 --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result: a JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloads are the benchmark's workloads, in README.md's order.
var workloads = []string{"shared-file-dense", "stream-sparse-large", "corpus-91", "append-reverify"}

// setupReps is how many times a run stages its inputs; setup_s is the
// median of the stagings.
const setupReps = 5

// buildDir holds everything a run leaves behind, relative to the checkout.
const buildDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "input seed: the same seed stages the same trace directories")
	secs := flag.Int("seconds", 10, "measuring budget in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	record := flag.String("record", "", "append this run's result to a baseline JSON `file` (refused below GOMAXPROCS 2)")
	stageDir := flag.String("stage", "", "internal: stage the workload into `dir`, print the staging seconds and exit")
	reference := flag.Bool("reference", false, "internal: with -stage, also compute the reference verdicts")
	measureDir := flag.String("measure", "", "internal: measure the workload staged in `dir` until -until, print the samples as JSON and exit")
	until := flag.Int64("until", 0, "internal: with -measure, the deadline in Unix nanoseconds")
	flag.Parse()

	if *stageDir != "" {
		d, err := stage(*workload, *seed, *stageDir, *reference)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: stage:", err)
			os.Exit(1)
		}
		fmt.Println(d.Seconds())
		return
	}
	if *measureDir != "" {
		s, err := measureChild(*workload, *measureDir, *seed, time.Unix(0, *until))
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: measure:", err)
			os.Exit(1)
		}
		fmt.Println(string(s))
		return
	}
	res, err := run(*workload, *seed, time.Duration(*secs)*time.Second, *traced == 1, *record)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(workload string, seed int64, budget time.Duration, traced bool, record string) (*result, error) {
	if !slices.Contains(workloads, workload) {
		return nil, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloads, ", "))
	}
	nproc, procs := runtime.NumCPU(), runtime.GOMAXPROCS(0)
	if record != "" && procs < 2 {
		return nil, fmt.Errorf("refusing to record a baseline at GOMAXPROCS=%d: workers=nproc would equal workers=1", procs)
	}
	if _, err := os.Stat(filepath.Join("results", "fig4.txt")); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	fmt.Printf("# env nproc=%d gomaxprocs=%d go=%s workload=%s seed=%d trace=%t\n",
		nproc, procs, runtime.Version(), workload, seed, traced)

	runDir, err := filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	input, setup, err := stageInputs(workload, seed, runDir)
	if err != nil {
		return nil, err
	}

	var metrics map[string]metric
	var t tally
	if traced {
		b, err := newBench(workload, input, seed)
		if err != nil {
			return nil, err
		}
		metrics, err = tracedRun(b, budget, filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.json", workload, seed)))
		if err != nil {
			return nil, err
		}
		t = b.tally
	} else {
		if metrics, t, err = plainRun(workload, input, seed, budget); err != nil {
			return nil, err
		}
		metrics["setup_s"] = metric{setup, "s"}
	}
	if t.FirstErr != "" {
		fmt.Printf("# FAILED: %d of %d verifications; first: %s\n", t.Failed, t.Attempted, t.FirstErr)
	}
	if workload == "append-reverify" {
		fmt.Printf("# cache: the largest append step re-verified %.2f%% of the cold step's chunks (gate %.0f%%)\n",
			100*t.MaxMissShare, 100*maxAppendMissShare)
	}
	if t.TruthMismatches > 0 {
		fmt.Printf("# known defect: %d Session/MPI-IO verdicts differ from the Def. 6 truth (see e2ebench/README.md)\n", t.TruthMismatches)
	}
	printMetrics(metrics)
	res := &result{
		Correct:   t.Failed == 0 && t.Attempted > 0,
		Attempted: t.Attempted,
		Failed:    t.Failed,
		Metrics:   metrics,
	}
	if record != "" {
		if err := appendRecord(record, workload, seed, traced, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// measureChild is a measuring process of a plain run: it measures the
// workload staged in dir until the deadline and returns its samples as
// JSON.
func measureChild(workload, dir string, seed int64, deadline time.Time) ([]byte, error) {
	b, err := newBench(workload, dir, seed)
	if err != nil {
		return nil, err
	}
	s, err := measure(b, deadline)
	if err != nil {
		return nil, err
	}
	return json.Marshal(s)
}

// stageInputs stages the workload setupReps times, each in a fresh process
// so the measuring process's peak RSS and GC state never see it, and keeps
// the last staging (the one that also computed the reference verdicts) as
// the run's input. It returns the input directory and the median staging
// time.
func stageInputs(workload string, seed int64, runDir string) (string, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return "", 0, err
	}
	var times []float64
	var dir string
	for k := 0; k < setupReps; k++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return "", 0, err
			}
		}
		dir = filepath.Join(runDir, fmt.Sprintf("stage-%d", k))
		args := []string{"-stage", dir, "-workload", workload, "-seed", strconv.FormatInt(seed, 10)}
		if k == setupReps-1 {
			args = append(args, "-reference")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return "", 0, fmt.Errorf("staging %s: %w", workload, err)
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return "", 0, fmt.Errorf("staging %s: bad output %q", workload, out)
		}
		times = append(times, s)
	}
	return dir, median(times), nil
}

// resetPeakRSS resets the kernel's peak resident set counter of this
// process (VmHWM) to the current resident set (Linux, proc(5) clear_refs).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns the process's peak resident set in bytes since the last
// resetPeakRSS.
func peakRSS() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-28s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// baselineRun is one recorded run of the baseline file.
type baselineRun struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Traced     bool    `json:"traced"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Result     *result `json:"result"`
}

// appendRecord appends the run to the baseline file at path (a JSON list).
func appendRecord(path, workload string, seed int64, traced bool, res *result) error {
	var runs []baselineRun
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &runs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	runs = append(runs, baselineRun{
		Workload: workload, Seed: seed, Traced: traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Result: res,
	})
	out, err := json.MarshalIndent(runs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
