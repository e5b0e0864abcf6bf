// Command verifyio runs steps 2–4 of the VerifyIO workflow on a trace
// directory: conflict detection, MPI matching, and consistency-semantics
// verification against one or all models.
//
// Usage:
//
//	verifyio -trace DIR [-model posix|commit|session|mpi-io|all]
//	         [-algorithm auto|vector-clock|reachability|transitive-closure|on-the-fly|segment]
//	         [-workers N] [-no-pruning] [-max-races N] [-details] [-tolerate]
//	         [-stream] [-window BYTES]
//	         [-cache-dir DIR] [-trace-out FILE] [-metrics-out FILE]
//	         [-dfg-out FILE] [-dfg-dot FILE]
//	         [-cpuprofile FILE] [-memprofile FILE] [-debug-addr ADDR]
//
// -stream verifies the trace while decoding it instead of loading it whole:
// conflict detection, MPI matching and the cache digests consume each record
// batch as it decodes, so peak memory is bounded by the decode window
// (-window BYTES, default 4 MiB, negative = unbounded) rather than the trace
// size. With -workers N the rank files decode N at a time (at most one per
// rank), each on its own worker with an equal share of the window. Reports
// are identical to the materializing path; only the Timing split differs
// (the fused pass reports DetectMatchWall). -diagnose needs the materialized
// trace and cannot be combined with -stream.
//
// -cache-dir attaches a persistent verdict cache: chunks of the verification
// plan are memoized by content digest, so re-running over an unchanged trace
// is served from cache (zero misses) and re-running after an append
// re-verifies only the chunks the change dirtied. Reports carry the hit,
// miss, and dirty-chunk counts.
//
// -trace-out writes the run's telemetry spans as Chrome trace_event JSON
// (load in chrome://tracing or https://ui.perfetto.dev); -metrics-out writes
// the runtime metric registry. -debug-addr serves net/http/pprof and expvar
// (including the live metrics) while the run executes.
//
// -dfg-out writes each rank's I/O directly-follows graph (nodes are
// normalized call classes tagged with file roles, edges are observed
// successions with counts, bytes, and inter-arrival histograms) plus the
// rank anomaly report — which ranks deviate from the rank-majority graph
// and by how much — as JSON. -dfg-dot writes the same graphs as Graphviz
// DOT (render with: dot -Tsvg dfg.dot -o dfg.svg; anomalous ranks are
// drawn red). The DFG pass streams the trace directory in bounded windows
// regardless of -stream; both artifacts are byte-deterministic at any
// worker count.
//
// Exit status: 0 when every verified model is properly synchronized, 1 when
// data races were found, 2 when verification aborted on unmatched MPI calls
// or an error occurred.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"verifyio"
	"verifyio/internal/dfg"
	"verifyio/internal/obs"
	"verifyio/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		traceDir  = flag.String("trace", "", "trace directory (written by verifyio-trace)")
		model     = flag.String("model", "all", "consistency model: posix, commit, session, mpi-io, or all")
		algorithm = flag.String("algorithm", "auto", "happens-before algorithm")
		noPrune   = flag.Bool("no-pruning", false, "disable conflict-group pruning (Fig. 3)")
		workers   = flag.Int("workers", 0, "analysis+verification worker goroutines for steps 2–4 (0 = GOMAXPROCS, 1 = serial); conflict detection shards across files and within single shared files")
		maxRaces  = flag.Int("max-races", 16, "maximum races reported in detail")
		details   = flag.Bool("details", false, "print full reports with call chains")
		diagnose  = flag.Bool("diagnose", false, "classify each race and suggest a fix")
		dump      = flag.Bool("dump", false, "print the trace as text and exit")
		jsonOut   = flag.Bool("json", false, "emit the reports as JSON")
		tolerate  = flag.Bool("tolerate", false, "salvage damaged or truncated rank streams instead of failing")
		stream    = flag.Bool("stream", false, "verify while decoding in bounded windows instead of materializing the trace")
		window    = flag.Int64("window", 0, "decoded-record window in bytes for -stream (0 = default 4 MiB, negative = unbounded)")
		cacheDir  = flag.String("cache-dir", "", "persistent verdict-cache directory: re-verifying an unchanged trace is served from cache, an appended trace re-verifies only the dirtied chunks")

		traceOut   = flag.String("trace-out", "", "write telemetry spans as Chrome trace_event JSON to this file")
		metricsOut = flag.String("metrics-out", "", "write the runtime metrics snapshot as JSON to this file")
		dfgOut     = flag.String("dfg-out", "", "write per-rank I/O directly-follows graphs and the rank anomaly report as JSON to this file")
		dfgDot     = flag.String("dfg-dot", "", "write the per-rank directly-follows graphs as Graphviz DOT to this file (render: dot -Tsvg)")
		prof       obs.Profiling
	)
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if *traceDir == "" {
		fmt.Fprintln(os.Stderr, "verifyio: -trace DIR is required")
		flag.Usage()
		return 2
	}
	stopProf, err := prof.Start(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "verifyio: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "verifyio: %v\n", err)
		}
	}()

	var tel *verifyio.Telemetry
	if *traceOut != "" || *metricsOut != "" || prof.DebugAddr != "" {
		tel = verifyio.NewTelemetry()
		tel.Publish("verifyio")
	}
	defer func() {
		if err := obs.WriteFileWith(*traceOut, func(w io.Writer) error { return tel.WriteChromeTrace(w) }); err != nil {
			fmt.Fprintf(os.Stderr, "verifyio: write -trace-out: %v\n", err)
		}
		if err := obs.WriteFileWith(*metricsOut, func(w io.Writer) error { return tel.WriteMetrics(w) }); err != nil {
			fmt.Fprintf(os.Stderr, "verifyio: write -metrics-out: %v\n", err)
		}
	}()
	if *dump {
		raw, _, err := trace.ReadDirWithOptions(*traceDir, trace.DecodeOptions{Tolerate: *tolerate})
		if err != nil {
			fmt.Fprintf(os.Stderr, "verifyio: %v\n", err)
			return 2
		}
		if err := trace.WriteText(os.Stdout, raw); err != nil {
			fmt.Fprintf(os.Stderr, "verifyio: %v\n", err)
			return 2
		}
		return 0
	}

	if *stream && *diagnose {
		fmt.Fprintln(os.Stderr, "verifyio: -diagnose needs the materialized trace; drop -stream")
		return 2
	}

	opts := &verifyio.Options{
		Algorithm:      *algorithm,
		DisablePruning: *noPrune,
		MaxRaceDetails: *maxRaces,
		Workers:        *workers,
		Telemetry:      tel,
	}
	if *cacheDir != "" {
		cache, err := verifyio.OpenCache(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "verifyio: open -cache-dir: %v\n", err)
			return 2
		}
		defer func() {
			if err := cache.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "verifyio: close -cache-dir: %v\n", err)
			}
		}()
		opts.Cache = cache
		// The trace directory names the manifest, so re-runs against the
		// same (possibly grown) directory find their incremental baseline.
		opts.CacheID = *traceDir
	}
	ropts := verifyio.ReadOptions{
		Tolerate:    *tolerate,
		Telemetry:   tel,
		WindowBytes: *window,
	}

	var (
		reports []*verifyio.Report
		tr      *verifyio.Trace
	)
	start := time.Now()
	if *stream {
		var rec *verifyio.Recovery
		if *model == "all" {
			reports, rec, err = verifyio.VerifyAllStream(*traceDir, ropts, opts)
		} else {
			var rep *verifyio.Report
			rep, rec, err = verifyio.VerifyStream(*traceDir, verifyio.Model(*model), ropts, opts)
			reports = []*verifyio.Report{rep}
		}
		if err == nil {
			warnRecovery(rec)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "verifyio: %v\n", err)
			return 2
		}
		fmt.Printf("trace: %s (%d ranks, %d records, streamed+analyzed in %v)\n",
			*traceDir, reports[0].Ranks, reports[0].Records, time.Since(start).Round(time.Millisecond))
	} else {
		var rec *verifyio.Recovery
		tr, rec, err = verifyio.ReadTraceDirOpts(*traceDir, ropts)
		if err == nil {
			warnRecovery(rec)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "verifyio: %v\n", err)
			return 2
		}
		readTime := time.Since(start)
		fmt.Printf("trace: %s (%d ranks, %d records, read in %v)\n",
			*traceDir, tr.NumRanks(), tr.NumRecords(), readTime.Round(time.Millisecond))
		if prog := tr.Meta("program"); prog != "" {
			fmt.Printf("program: %s\n", prog)
		}
		if *model == "all" {
			reports, err = verifyio.VerifyAll(tr, opts)
		} else {
			var rep *verifyio.Report
			rep, err = verifyio.Verify(tr, verifyio.Model(*model), opts)
			reports = []*verifyio.Report{rep}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "verifyio: %v\n", err)
			return 2
		}
	}

	if *dfgOut != "" || *dfgDot != "" {
		// The DFG pass always streams the trace directory, whatever the
		// verification mode: memory stays bounded by the decode window
		// plus the graphs themselves.
		fleet, err := dfg.BuildStreamDir(*traceDir, dfg.StreamOptions{
			Decode:      trace.DecodeOptions{Tolerate: *tolerate},
			WindowBytes: *window,
			Obs:         tel.Obs(),
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "verifyio: dfg: %v\n", err)
			return 2
		}
		if err := obs.WriteFileWith(*dfgOut, fleet.WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "verifyio: write -dfg-out: %v\n", err)
			return 2
		}
		if err := obs.WriteFileWith(*dfgDot, fleet.WriteDOT); err != nil {
			fmt.Fprintf(os.Stderr, "verifyio: write -dfg-dot: %v\n", err)
			return 2
		}
		fmt.Println(fleet.Summary())
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintf(os.Stderr, "verifyio: %v\n", err)
			return 2
		}
		for _, rep := range reports {
			if !rep.Verified {
				return 2
			}
			if !rep.ProperlySynchronized {
				return 1
			}
		}
		return 0
	}

	status := 0
	for _, rep := range reports {
		if *details {
			fmt.Println("----------------------------------------")
			rep.Render(os.Stdout)
		} else {
			fmt.Println(rep.Summary())
		}
		if *diagnose && rep.Verified && rep.RaceCount > 0 {
			_, ds, err := verifyio.Diagnose(tr, rep.Model, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "verifyio: diagnose: %v\n", err)
				return 2
			}
			for i, d := range ds {
				fmt.Printf("  diagnosis #%d [%s] responsible: %s\n", i+1, d.Category, d.Responsible)
				fmt.Printf("    %s (rank %d) vs %s (rank %d) on %s\n",
					d.Race.FuncX, d.Race.RankX, d.Race.FuncY, d.Race.RankY, d.Race.File)
				fmt.Printf("    fix: %s\n", d.Suggestion)
			}
		}
		switch {
		case !rep.Verified:
			status = 2
		case !rep.ProperlySynchronized && status == 0:
			status = 1
		}
	}
	if opts.Cache != nil {
		hits, misses, dirty := opts.Cache.Stats()
		fmt.Printf("verdict cache: %d hits, %d misses (%d dirty chunks)\n", hits, misses, dirty)
	}
	return status
}

// warnRecovery reports what lenient loading salvaged, rank by rank.
func warnRecovery(rec *verifyio.Recovery) {
	if rec.Clean() {
		return
	}
	for _, rr := range rec.Ranks {
		dropped := fmt.Sprintf("%d records dropped", rr.Dropped)
		if rr.Dropped < 0 {
			dropped = "unknown records dropped"
		}
		fmt.Fprintf(os.Stderr, "verifyio: rank %d damaged: %d records salvaged, %s (%s)\n",
			rr.Rank, rr.Salvaged, dropped, rr.Reason)
	}
	fmt.Fprintf(os.Stderr, "verifyio: verifying the salvaged prefix; results cover only the recovered records\n")
}
