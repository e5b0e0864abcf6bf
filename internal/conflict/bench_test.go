package conflict

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"verifyio/internal/trace"
)

// synthTrace builds a trace with nranks ranks each issuing ops pwrites at
// random offsets within a window (overlap density controlled by window).
func synthTrace(nranks, ops int, window int64, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.New(nranks)
	for rank := 0; rank < nranks; rank++ {
		tick := int64(0)
		tick += 2
		tr.Append(trace.Record{Rank: rank, Func: "open", Layer: trace.LayerPOSIX,
			Args: []string{"f", "rw|creat", "3"}, Tick: tick, Ret: tick + 1})
		for i := 0; i < ops; i++ {
			tick += 2
			tr.Append(trace.Record{Rank: rank, Func: "pwrite", Layer: trace.LayerPOSIX,
				Args: []string{"3", "16", fmt.Sprint(rng.Int63n(window))},
				Tick: tick, Ret: tick + 1})
		}
	}
	return tr
}

// BenchmarkDetectScaling measures the sort-and-sweep over increasing
// operation counts at two overlap densities.
func BenchmarkDetectScaling(b *testing.B) {
	for _, cfg := range []struct {
		ops    int
		name   string
		window int64
	}{
		{1000, "sparse", 1 << 20},
		{1000, "dense", 1 << 10},
		{10000, "sparse", 1 << 20},
		// dense × 10000 is omitted: ~1.8×10⁷ pairs make the benchmark
		// measure pair materialization, not the sweep.
	} {
		tr := synthTrace(4, cfg.ops, cfg.window, 42)
		b.Run(fmt.Sprintf("ops=%d/%s", cfg.ops, cfg.name), func(b *testing.B) {
			var pairs int64
			for i := 0; i < b.N; i++ {
				res, err := Detect(tr)
				if err != nil {
					b.Fatal(err)
				}
				pairs = res.Pairs
			}
			b.ReportMetric(float64(pairs), "pairs")
			b.ReportMetric(float64(4*cfg.ops), "ops")
		})
	}
}

// BenchmarkOffsetReplay measures the (FP, EOF) reconstruction path: seeks
// interleaved with offset-less reads/writes.
func BenchmarkOffsetReplay(b *testing.B) {
	tr := trace.New(1)
	tick := int64(0)
	add := func(fn string, args ...string) {
		tick += 2
		tr.Append(trace.Record{Rank: 0, Func: fn, Layer: trace.LayerPOSIX,
			Args: args, Tick: tick, Ret: tick + 1})
	}
	add("open", "f", "rw|creat", "3")
	for i := 0; i < 5000; i++ {
		add("lseek", "3", fmt.Sprint(i*8), "SEEK_SET", fmt.Sprint(i*8))
		add("write", "3", "8")
		add("read", "3", "8")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Detect(tr)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Ops) != 10000 {
			b.Fatalf("ops = %d", len(res.Ops))
		}
	}
}

// BenchmarkIntervalSort compares the two interval sorts sortByStart picks
// between, on one file's worth of random start offsets; radixCutoff is the
// smallest size at which radix wins.
func BenchmarkIntervalSort(b *testing.B) {
	for _, n := range []int{32, 64, 128, 256, 512, 1024, 16384} {
		rng := rand.New(rand.NewSource(int64(n)))
		ops := make([]Op, n)
		for i := range ops {
			ops[i].Start = rng.Int63n(1 << 30)
		}
		w := make([]int32, n)
		for name, sorter := range map[string]func([]Op, []int32, *sortScratch){
			"compare": func(ops []Op, w []int32, _ *sortScratch) { slices.SortFunc(w, startOrder(ops)) },
			"radix":   radixSortByStart,
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, name), func(b *testing.B) {
				var sc sortScratch
				for i := 0; i < b.N; i++ {
					for j := range w {
						w[j] = int32(j)
					}
					sorter(ops, w, &sc)
				}
			})
		}
	}
}
