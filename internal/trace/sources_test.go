package trace

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// drainSources drains every rank source on its own goroutine, at most conc
// at a time, then completes the stream with the rank-ordered Next,
// returning each rank's records (copied before release) and the final Next
// error.
func drainSources(t *testing.T, s *Stream, conc int) ([][]Record, error) {
	t.Helper()
	ranks := make([][]Record, s.NumRanks())
	var wg sync.WaitGroup
	sem := make(chan struct{}, conc)
	for _, src := range s.Sources() {
		wg.Add(1)
		go func(src *RankSource) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			for {
				b, err := src.Next()
				if err != nil {
					return
				}
				if b.Rank != src.Rank() {
					t.Errorf("source %d yielded a batch of rank %d", src.Rank(), b.Rank)
				}
				ranks[b.Rank] = append(ranks[b.Rank], b.Recs...)
				b.Release()
			}
		}(src)
	}
	wg.Wait()
	if b, err := s.Next(); b != nil {
		t.Fatalf("Next after draining every source returned a batch of rank %d", b.Rank)
	} else if err != io.EOF {
		return ranks, err
	}
	return ranks, nil
}

func writeStreamTrace(t *testing.T, nranks, nrecs int) (string, *Trace) {
	t.Helper()
	tr := streamTestTrace(t, nranks, nrecs)
	dir := t.TempDir()
	if err := WriteDir(dir, tr, EncodeOptions{Compress: false}); err != nil {
		t.Fatal(err)
	}
	return dir, tr
}

// TestSourcesConcurrentMatchReadDir drains the rank sources concurrently
// under a shared window and checks the records, the per-rank counts, and
// the peak bound: each rank's batches get window/Concurrency, so the
// summed peak of the ranks in flight stays within twice the window.
func TestSourcesConcurrentMatchReadDir(t *testing.T) {
	dir, tr := writeStreamTrace(t, 5, 400)
	const window = 1 << 12
	for _, conc := range []int{1, 2, 5} {
		s, err := OpenStream(dir, StreamOptions{WindowBytes: window, Concurrency: conc})
		if err != nil {
			t.Fatal(err)
		}
		ranks, err := drainSources(t, s, conc)
		if err != nil {
			t.Fatal(err)
		}
		for rank := range tr.Ranks {
			if !reflect.DeepEqual(ranks[rank], tr.Ranks[rank]) {
				t.Fatalf("concurrency %d: rank %d differs from the written trace", conc, rank)
			}
			if s.Counts()[rank] != len(tr.Ranks[rank]) {
				t.Fatalf("concurrency %d: Counts()[%d] = %d, want %d", conc, rank, s.Counts()[rank], len(tr.Ranks[rank]))
			}
		}
		if peak := s.PeakResidentBytes(); peak <= 0 || peak > 2*window {
			t.Fatalf("concurrency %d: peak %d, want in (0, %d]", conc, peak, 2*window)
		}
		s.Close()
	}
}

// TestSourcesConcurrencyCappedAtRanks: asking for more concurrency than
// there are rank files decodes exactly like asking for one per file — the
// same batch boundaries and the same peak — so neither depends on the
// host's worker count once it covers the ranks.
func TestSourcesConcurrencyCappedAtRanks(t *testing.T) {
	dir, _ := writeStreamTrace(t, 3, 400)
	const window = 1 << 12
	drain := func(conc int) ([][]int, int64) {
		s, err := OpenStream(dir, StreamOptions{WindowBytes: window, Concurrency: conc})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sizes := make([][]int, s.NumRanks())
		for _, src := range s.Sources() {
			for {
				b, err := src.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				sizes[b.Rank] = append(sizes[b.Rank], len(b.Recs))
				b.Release()
			}
		}
		if _, err := s.Next(); err != io.EOF {
			t.Fatalf("concurrency %d: Next after draining = %v, want io.EOF", conc, err)
		}
		return sizes, s.PeakResidentBytes()
	}
	wantSizes, wantPeak := drain(3)
	if len(wantSizes[0]) < 2 {
		t.Fatalf("rank 0 decoded in %d batch(es); the window is too large to exercise batching", len(wantSizes[0]))
	}
	for _, conc := range []int{4, 32} {
		sizes, peak := drain(conc)
		if !reflect.DeepEqual(sizes, wantSizes) {
			t.Errorf("concurrency %d: batch sizes %v, want those at concurrency 3: %v", conc, sizes, wantSizes)
		}
		if peak != wantPeak {
			t.Errorf("concurrency %d: peak %d, want %d as at concurrency 3", conc, peak, wantPeak)
		}
	}
	if _, peak1 := drain(1); peak1 == wantPeak {
		t.Errorf("concurrency 1 and 3 report the same peak %d; per-rank windows are not split", peak1)
	}
}

// TestSourcesTolerateStatsMatchSequential damages two ranks and checks the
// concurrent drain salvages exactly the sequential stream's records and
// DecodeStats.
func TestSourcesTolerateStatsMatchSequential(t *testing.T) {
	dir, _ := writeStreamTrace(t, 4, 300)
	for _, rank := range []int{1, 3} {
		path := filepath.Join(dir, fmt.Sprintf("rank-%d.viot", rank))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)*(rank+1)/5], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	opts := StreamOptions{DecodeOptions: DecodeOptions{Tolerate: true}, WindowBytes: 1 << 11}
	seq, err := OpenStream(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := drainStream(t, seq)
	opts.Concurrency = 3
	par, err := OpenStream(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := drainSources(t, par, opts.Concurrency)
	if err != nil {
		t.Fatal(err)
	}
	for rank := range want {
		if !reflect.DeepEqual(got[rank], want[rank]) {
			t.Fatalf("rank %d salvage differs: concurrent %d records, sequential %d", rank, len(got[rank]), len(want[rank]))
		}
	}
	if !reflect.DeepEqual(par.Stats(), seq.Stats()) {
		t.Fatalf("stats differ:\nconcurrent %+v\nsequential %+v", par.Stats(), seq.Stats())
	}
	if par.Stats().Clean() {
		t.Fatal("damaged trace reported clean stats")
	}
}

// TestSourcesStrictErrorNamesLowestRank damages ranks 1 and 3: however the
// concurrent drain interleaves, the stream reports rank 1's error with the
// sequential stream's text.
func TestSourcesStrictErrorNamesLowestRank(t *testing.T) {
	dir, _ := writeStreamTrace(t, 4, 300)
	for _, name := range []string{"rank-1.viot", "rank-3.viot"} {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := OpenStream(dir, StreamOptions{WindowBytes: 1 << 11})
	if err != nil {
		t.Fatal(err)
	}
	_, wantErr := drainStreamErr(seq)
	if wantErr == nil {
		t.Fatal("sequential stream accepted a truncated rank file")
	}
	for i := 0; i < 20; i++ {
		par, err := OpenStream(dir, StreamOptions{WindowBytes: 1 << 11, Concurrency: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := drainSources(t, par, 4); err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("concurrent drain error = %v, want %v", err, wantErr)
		}
		par.Close()
	}
}

// drainStreamErr drains a stream sequentially and returns its terminal
// error (nil at a clean end).
func drainStreamErr(s *Stream) (int, error) {
	n := 0
	for {
		b, err := s.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n += len(b.Recs)
		b.Release()
	}
}

// TestOpenRanksOpensOnlyRequested overwrites the unrequested rank files
// with garbage: OpenRanks must never read them, and its sources yield the
// requested ranks' records.
func TestOpenRanksOpensOnlyRequested(t *testing.T) {
	dir, tr := writeStreamTrace(t, 4, 100)
	for _, name := range []string{"rank-0.viot", "rank-2.viot"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not a trace"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := OpenRanks(dir, []int{1, 3}, StreamOptions{Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srcs := s.Sources()
	if len(srcs) != 2 || srcs[0].Rank() != 1 || srcs[1].Rank() != 3 {
		t.Fatalf("sources = %v, want ranks 1 and 3", srcs)
	}
	for _, src := range srcs {
		var recs []Record
		for {
			b, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, b.Recs...)
			b.Release()
		}
		if !reflect.DeepEqual(recs, tr.Ranks[src.Rank()]) {
			t.Fatalf("rank %d records differ", src.Rank())
		}
	}
	if _, err := OpenRanks(dir, []int{7}, StreamOptions{}); err == nil {
		t.Fatal("OpenRanks accepted a rank with no file")
	}
}
