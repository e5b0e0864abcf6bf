package verify

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"verifyio/internal/obs"
	"verifyio/internal/par"
	"verifyio/internal/trace"
)

// StreamAnalyzeOptions tunes AnalyzeStream.
type StreamAnalyzeOptions struct {
	AnalyzeOptions
	// Decode passes trace decoding options through (tolerate mode, limits).
	// Its Obs field is overridden with AnalyzeOptions.Obs so the decode
	// spans join the analysis trace.
	Decode trace.DecodeOptions
	// WindowBytes bounds the decoded records resident at once, exactly as
	// trace.StreamOptions.WindowBytes: 0 means the default window, negative
	// means unbounded.
	WindowBytes int64
	// OnBatch, when set, observes every record batch of the fused pass
	// before the analysis stages consume it — the hook a secondary
	// consumer (the DFG builder) rides to share one bounded decode. Calls
	// are serialized and each rank's batches arrive in program order, but
	// with Workers != 1 the ranks decode concurrently, so batches of
	// different ranks may interleave in any order. AnalyzeStream releases
	// the batch after the analysis stages run, so the callback must neither
	// retain b.Recs nor call b.Release (the pool contract documented on
	// trace.Batch.Release).
	OnBatch func(b *trace.Batch)
}

// AnalyzeStream runs steps 2 and 3 directly off the decoder: the analysis
// core (see AnalyzeOpts) fed each rank's batches as they decode, plus the
// cache's block chains, so peak memory is bounded by the decode window
// instead of the trace size. Each rank file decodes, replays, match-scans
// and digests on its own worker, with each rank's batches bounded by
// WindowBytes / min(Workers, ranks) so the ranks in flight share the one
// window. The resulting Analysis equals AnalyzeOpts(ReadDir(dir)) — same
// conflicts, same matcher output, same oracle, same Timing meaning — at
// every worker count, but holds no materialized trace: race details are
// re-decoded on demand and the verdict cache reads the chains digested
// during the pass. Timing.ReadTrace is the decode busy time.
func AnalyzeStream(dir string, algo Algo, opts StreamAnalyzeOptions) (*Analysis, error) {
	workers := par.Resolve(opts.Workers)
	oc, span := opts.Obs.Start("analyze", obs.Int("workers", workers), obs.String("mode", "stream"))
	span.SetCat("analyze")
	defer span.End()
	start := time.Now()

	dopts := opts.Decode
	dopts.Obs = oc
	s, err := trace.OpenStream(dir, trace.StreamOptions{
		DecodeOptions: dopts, WindowBytes: opts.WindowBytes, Concurrency: workers,
	})
	if err != nil {
		return nil, fmt.Errorf("verify: read trace: %w", err)
	}
	defer s.Close()

	nranks := s.NumRanks()
	srcs := s.Sources()
	recs := &dirRecords{dir: dir, decode: opts.Decode, window: opts.WindowBytes}
	a := &Analysis{records: recs}
	chains := make([]trace.ChainBuilder, nranks)
	decode := make([]time.Duration, len(srcs))
	var batchMu sync.Mutex
	feed := func(i int, visit batchFunc) {
		src := srcs[i]
		rank := src.Rank()
		for {
			t := time.Now()
			b, err := src.Next()
			decode[i] += time.Since(t)
			if err != nil {
				// An error is sticky on the source: the rank-ordered walk
				// in drained reports the lowest failing rank's.
				return
			}
			if opts.OnBatch != nil {
				batchMu.Lock()
				opts.OnBatch(b)
				batchMu.Unlock()
			}
			visit(rank, b.Start, b.Recs)
			chains[rank].Add(b.Recs)
			b.Release()
		}
	}
	drained := func() error {
		if _, err := s.Next(); err != io.EOF {
			return fmt.Errorf("verify: read trace: %w", err)
		}
		for _, d := range decode {
			a.Timing.ReadTrace += d
		}
		a.counts = append([]int(nil), s.Counts()...)
		a.salvage = s.Stats()
		recs.chains = make([][][32]byte, nranks)
		for r := range chains {
			recs.chains[r] = chains[r].Chain()
		}
		return nil
	}
	if err := a.analyze(algo, opts.AnalyzeOptions, oc, start, nranks, len(srcs), feed, drained); err != nil {
		return nil, err
	}
	return a, nil
}

// dirRecords serves a streamed trace: the block chains its pass digested,
// and raced records re-decoded from the directory on demand.
type dirRecords struct {
	dir    string
	decode trace.DecodeOptions
	window int64
	chains [][][32]byte

	// recs memoizes re-decoded records; model passes share it.
	mu   sync.Mutex
	recs map[trace.Ref]trace.Record
}

func (d *dirRecords) chain(rank int) [][32]byte { return d.chains[rank] }

// record serves a record from the memo; the ref must have been fetched.
func (d *dirRecords) record(ref trace.Ref) *trace.Record {
	d.mu.Lock()
	rec, ok := d.recs[ref]
	d.mu.Unlock()
	if !ok {
		// Contract violation (fetch not called); fail soft with an empty
		// record rather than panicking inside report assembly.
		return &trace.Record{Rank: ref.Rank, Seq: ref.Seq}
	}
	return &rec
}

// fetch re-decodes the given records into the memo. Only rank files holding
// a needed record are opened; they decode in parallel, each stopping after
// its last needed record. The set is bounded by the models'
// MaxRaceDetails, so this is a cheap windowed pass.
func (d *dirRecords) fetch(refs []trace.Ref, opts Options) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	need := make(map[int][]int) // rank -> needed seqs
	for _, ref := range refs {
		if _, ok := d.recs[ref]; !ok {
			need[ref.Rank] = append(need[ref.Rank], ref.Seq)
		}
	}
	if len(need) == 0 {
		return nil
	}
	ranks := make([]int, 0, len(need))
	for r := range need {
		ranks = append(ranks, r)
	}
	slices.Sort(ranks)
	for _, r := range ranks {
		slices.Sort(need[r])
		need[r] = slices.Compact(need[r])
	}
	oc, span := opts.Obs.Start("race-details", obs.Int("ranks", len(ranks)))
	defer span.End()
	workers := par.Resolve(opts.Workers)
	s, err := trace.OpenRanks(d.dir, ranks, trace.StreamOptions{
		DecodeOptions: trace.DecodeOptions{Limits: d.decode.Limits, Tolerate: d.decode.Tolerate,
			Obs: obs.Ctx{T: oc.T, S: oc.S}},
		WindowBytes: d.window,
		Concurrency: workers,
	})
	if err != nil {
		return fmt.Errorf("verify: race details: %w", err)
	}
	defer s.Close()
	found := make([][]trace.Record, len(ranks))
	errs := make([]error, len(ranks))
	par.Do(workers, len(ranks), func(i int) {
		src, seqs := s.Sources()[i], need[ranks[i]]
		for len(seqs) > 0 {
			b, err := src.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				errs[i] = err
				return
			}
			for len(seqs) > 0 && seqs[0] < b.Start+len(b.Recs) {
				if seqs[0] >= b.Start {
					found[i] = append(found[i], b.Recs[seqs[0]-b.Start])
				}
				seqs = seqs[1:]
			}
			b.Release()
		}
	})
	// The counter is the records read through the last needed one on each
	// opened rank: unlike the batches decoded, it does not depend on the
	// per-rank window, and so not on the worker count.
	total, missing := 0, 0
	if d.recs == nil {
		d.recs = make(map[trace.Ref]trace.Record)
	}
	for i, rank := range ranks {
		if errs[i] != nil {
			return fmt.Errorf("verify: race details: %w", errs[i])
		}
		seqs := need[rank]
		total += seqs[len(seqs)-1] + 1
		missing += len(seqs) - len(found[i])
		for _, rec := range found[i] {
			d.recs[trace.Ref{Rank: rank, Seq: rec.Seq}] = rec
		}
	}
	opts.Obs.Counter("verify.race_redecode_records").Add(int64(total))
	if missing > 0 {
		return fmt.Errorf("verify: race details: %d race records missing from re-decoded trace %s", missing, d.dir)
	}
	return nil
}
