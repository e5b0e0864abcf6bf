package trace

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"

	"verifyio/internal/obs"
)

// Streaming, bounded-memory trace ingestion.
//
// The materializing decoders (Decode, ReadDir) hold every record of every
// rank resident before analysis starts, so peak memory is O(trace size). The
// Stream below is the pull-based alternative: it yields per-rank record
// batches in rank-major order, each batch bounded by a byte window, with an
// explicit Release that returns the batch buffer to the stream's pool. A
// consumer that releases each batch after processing it keeps peak decoded
// memory bounded by the window (plus the current file's string table), not by
// the trace. A directory stream is a set of per-rank sources (RankSource)
// over one prescan, sharing the pool and the resident accounting; Next walks
// them in rank order, or a consumer drains them concurrently, each rank
// holding its share of the window.
//
// Both decoders share one record-decoding core (payloadStream), so streaming
// and materializing ingestion are behaviorally identical: the same Limits
// bound every allocation, the same DecodeErrors classify every failure, and
// tolerate-mode salvage keeps exactly the same per-rank prefixes with the
// same DecodeStats. ReadDirWithOptions is a thin wrapper that drains a
// Stream with an unbounded window.

// DefaultWindowBytes is the decoded-cost budget of one batch when
// StreamOptions.WindowBytes is zero: enough to amortize per-batch overhead,
// small enough that a multi-GB trace never has more than a few MB of records
// resident.
const DefaultWindowBytes = 4 << 20

// WindowUnbounded disables batch windowing: each rank arrives as a single
// batch (the materializing wrapper uses this to preserve its one-allocation-
// per-rank profile).
const WindowUnbounded = -1

// StreamOptions controls streaming ingestion. DecodeOptions (Limits,
// Tolerate, Obs) mean exactly what they mean for the materializing decoders.
type StreamOptions struct {
	DecodeOptions
	// WindowBytes bounds the decoded cost of one batch, in the same units
	// the payload budget (Limits.MaxPayload) is charged: string bytes plus
	// per-entity bookkeeping overhead. Zero selects DefaultWindowBytes;
	// WindowUnbounded (or any negative value) disables windowing.
	WindowBytes int64
	// Concurrency is how many rank files the consumer decodes at once
	// through Sources; 0 means 1, and more than the directory's rank files
	// means one per file. Each rank's batches are bounded by WindowBytes
	// divided by that effective concurrency, so the batches of the ranks in
	// flight fit the window together.
	Concurrency int
}

// Batch is one contiguous run of a single rank's records, in program order.
// Recs[i].Seq == Start+i. The batch's buffer belongs to the Stream: call
// Release when done with it (and do not retain Recs after), or keep the
// records and never release — but not both.
type Batch struct {
	Rank  int
	Start int
	Recs  []Record

	cost int64
	s    *Stream
	src  *RankSource // directory mode: the rank's source
}

// Release returns the batch buffer to the stream's pool and credits its cost
// against the resident-bytes accounting.
//
// The pool contract for consumers (the analysis stages, the DFG builder):
// copy out anything you need before releasing — the buffer is recycled for
// a later batch, so retained Recs are silently overwritten. Release is
// idempotent: the first call severs the batch from its stream, so a second
// call is a no-op rather than a double-free (the buffer can never be pushed
// into the pool twice, and the resident accounting is credited exactly
// once).
func (b *Batch) Release() {
	if b == nil || b.s == nil {
		return
	}
	s := b.s
	s.mu.Lock()
	s.resident -= b.cost
	if b.src != nil {
		b.src.resident -= b.cost
	}
	if cap(b.Recs) > 0 {
		s.pool = append(s.pool, b.Recs[:0])
	}
	s.mu.Unlock()
	b.s = nil
	b.src = nil
	b.Recs = nil
}

// Stream decodes a trace incrementally, yielding per-rank record batches in
// rank-major order (all of rank 0's batches, then rank 1's, ...). Next is
// not safe for concurrent use; a directory stream can instead be consumed
// rank-parallel through Sources.
type Stream struct {
	opts       StreamOptions
	rankWindow int64 // per-batch bound: window / concurrency(), 0 = unbounded

	// Single-reader mode (NewStream): one payload carrying every rank.
	single *streamSource

	// Directory mode (OpenStream): one single-rank file per world rank.
	dir    string
	names  map[int]string // world rank -> file name (parseable names only)
	srcs   []*RankSource  // ranks with readable files, ascending
	idx    int            // Next's cursor into srcs
	failed map[int]error  // tolerate: files whose prescan failed

	nranks int
	meta   map[string]string // trace-level meta (verifyio.* keys stripped)
	counts []int             // per-world-rank emitted record counts
	stats  *DecodeStats
	done   bool

	oc   obs.Ctx
	span *obs.Span // directory mode: the "read-trace" span

	// mu guards the buffer pool and the resident accounting, which the
	// rank sources share.
	mu       sync.Mutex
	resident int64
	peak     int64
	pool     [][]Record

	err    error // sticky failure
	closed bool
}

// RankSource decodes one rank file of a trace directory, in program order,
// one window-bounded batch at a time. The sources of a Stream share its
// buffer pool and resident accounting; distinct sources may be drained on
// distinct goroutines. Stream.Next is the rank-ordered walk over them.
type RankSource struct {
	s    *Stream
	rank int
	src  *streamSource
	span *obs.Span
	done bool
	err  error // sticky failure (strict mode)

	failed  error          // tolerate: the file salvaged nothing
	entries []RankRecovery // tolerate: the file's salvage entries

	resident, peak int64 // this rank's unreleased batch cost (under s.mu)
}

// streamSource is one open payload being decoded.
type streamSource struct {
	f  *os.File // nil in single-reader mode
	fr io.ReadCloser
	d  *decoder
	ps *payloadStream
}

func (src *streamSource) close() {
	if src.fr != nil {
		src.fr.Close()
		src.fr = nil
	}
	if src.f != nil {
		src.f.Close()
		src.f = nil
	}
}

// NewStream starts streaming one encoded trace stream (the format Encode
// writes). Batches cover every rank the stream declares, in rank-major
// order. Header, metadata, or string-table damage fails here; later damage
// surfaces from Next exactly as DecodeWithOptions would report it.
func NewStream(r io.Reader, opts StreamOptions) (*Stream, error) {
	src, err := openSource(r, opts.DecodeOptions)
	if err != nil {
		return nil, err
	}
	s := &Stream{
		opts:   opts,
		single: src,
		nranks: src.ps.nranks,
		meta:   src.ps.meta,
		counts: make([]int, src.ps.nranks),
		oc:     opts.Obs,
	}
	s.setWindow()
	return s, nil
}

// OpenStream starts streaming a trace directory written by WriteDir: one
// batch run per world rank, ranks ascending. The directory's shape (rank
// count, missing files) is validated up front by decoding each file's
// metadata section; record damage surfaces from Next with the semantics of
// ReadDirWithOptions — strict mode fails, tolerate mode salvages per-rank
// prefixes and reports them in Stats.
func OpenStream(dir string, opts StreamOptions) (*Stream, error) {
	oc, span := opts.Obs.Start("read-trace", obs.String("dir", dir))
	span.SetCat("decode")
	s := &Stream{
		opts:   opts,
		dir:    dir,
		names:  make(map[int]string),
		failed: make(map[int]error),
		meta:   make(map[string]string),
		oc:     oc,
		span:   span,
	}
	if err := s.scanDir(); err != nil {
		span.End()
		return nil, err
	}
	s.setWindow()
	return s, nil
}

// setWindow resolves the window options into the per-rank batch bound and
// publishes the window gauge.
func (s *Stream) setWindow() {
	window := s.opts.WindowBytes
	if window == 0 {
		window = DefaultWindowBytes
	}
	if window > 0 {
		s.rankWindow = max(window/int64(s.concurrency()), 1)
		s.oc.R.Gauge("decode.window_bytes").Set(window)
	}
}

// concurrency is how many ranks hold batches at once: Concurrency, but no
// more than there are rank sources (a single-reader stream has none, and one
// reader).
func (s *Stream) concurrency() int { return max(min(s.opts.Concurrency, len(s.srcs)), 1) }

// scanDir enumerates the rank files and decodes each one's metadata section
// (a few bytes per file) to resolve the world rank count and run the strict
// completeness checks before any records decode.
func (s *Stream) scanDir() error {
	maxRank, err := s.listDir()
	if err != nil {
		return err
	}
	nranks := -1
	readable := 0
	ranks := make([]int, 0, len(s.names))
	for rank := range s.names {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)
	for _, rank := range ranks {
		meta, err := s.prescanFile(s.names[rank])
		if err != nil {
			if de, ok := AsDecodeError(err); ok && de.Rank == 0 {
				de.Rank = rank
			}
			if !s.opts.Tolerate {
				return fmt.Errorf("trace: %s: %w", s.names[rank], err)
			}
			s.failed[rank] = err
			continue
		}
		readable++
		if rank >= 0 {
			s.srcs = append(s.srcs, &RankSource{s: s, rank: rank})
		}
		if n := meta["verifyio.nranks"]; n != "" {
			fmt.Sscanf(n, "%d", &nranks)
		}
		if rank == 0 {
			for k, v := range meta {
				switch k {
				case "verifyio.rank", "verifyio.nranks":
				default:
					s.meta[k] = v
				}
			}
		}
	}
	if readable == 0 && len(s.failed) == 0 {
		return fmt.Errorf("trace: no rank files in %s", s.dir)
	}
	if nranks < 0 || (s.opts.Tolerate && maxRank+1 > nranks) {
		nranks = maxRank + 1
	}
	// The rank count came from file names and metadata — input, not ground
	// truth. Bound it like any other decoded count.
	if lim := s.opts.Limits.withDefaults(); nranks > lim.MaxRanks {
		if !s.opts.Tolerate {
			return &DecodeError{
				Kind: LimitExceeded, Section: "directory", Rank: -1, Record: -1,
				Err: fmt.Errorf("rank count %d exceeds limit %d", nranks, lim.MaxRanks),
			}
		}
		nranks = lim.MaxRanks
	}
	if !s.opts.Tolerate {
		if readable != nranks {
			return fmt.Errorf("trace: directory holds %d rank files, metadata says %d ranks", readable, nranks)
		}
		for rank := 0; rank < nranks; rank++ {
			if _, ok := s.names[rank]; !ok {
				return fmt.Errorf("trace: missing rank file for rank %d", rank)
			}
		}
	}
	s.nranks = nranks
	s.counts = make([]int, nranks)
	// Drop files beyond the resolved rank count (a clamped tolerate run).
	for len(s.srcs) > 0 && s.srcs[len(s.srcs)-1].rank >= nranks {
		s.srcs = s.srcs[:len(s.srcs)-1]
	}
	return nil
}

// listDir maps world ranks to rank file names (without opening any) and
// returns the largest rank found.
func (s *Stream) listDir() (int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	maxRank := -1
	for _, e := range entries {
		var rank int
		if _, err := fmt.Sscanf(e.Name(), "rank-%d.viot", &rank); err != nil {
			continue
		}
		s.names[rank] = e.Name()
		maxRank = max(maxRank, rank)
	}
	return maxRank, nil
}

// OpenRanks opens sources for just the given world ranks (ascending, no
// duplicates) of a trace directory, skipping the directory prescan: no
// other rank file is ever opened. It serves re-reads of a directory an
// earlier OpenStream already validated, such as fetching raced records;
// the Stream carries no metadata or salvage stats, only Sources.
func OpenRanks(dir string, ranks []int, opts StreamOptions) (*Stream, error) {
	s := &Stream{opts: opts, dir: dir, names: make(map[int]string), oc: opts.Obs}
	if _, err := s.listDir(); err != nil {
		return nil, err
	}
	for _, rank := range ranks {
		if _, ok := s.names[rank]; !ok {
			return nil, fmt.Errorf("trace: missing rank file for rank %d", rank)
		}
		s.srcs = append(s.srcs, &RankSource{s: s, rank: rank})
		s.nranks = max(s.nranks, rank+1)
	}
	s.counts = make([]int, s.nranks)
	s.setWindow()
	return s, nil
}

// prescanFile decodes the header and metadata section of one rank file.
func (s *Stream) prescanFile(name string) (map[string]string, error) {
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	payload, fr, err := openPayload(f)
	if err != nil {
		return nil, err
	}
	if fr != nil {
		defer fr.Close()
	}
	d := newDecoder(payload, s.opts.Limits, false)
	return d.decodeMetaSection()
}

// openSource opens one encoded stream: header checks, decompression, and the
// eager sections (metadata, string table, rank count).
func openSource(r io.Reader, opts DecodeOptions) (*streamSource, error) {
	payload, fr, err := openPayload(r)
	if err != nil {
		return nil, err
	}
	d := newDecoder(payload, opts.Limits, false)
	ps, err := newPayloadStream(d, opts.Tolerate)
	if err != nil {
		if fr != nil {
			fr.Close()
		}
		return nil, err
	}
	return &streamSource{fr: fr, d: d, ps: ps}, nil
}

// NumRanks returns the world rank count (known before any batch decodes).
func (s *Stream) NumRanks() int { return s.nranks }

// Meta returns the trace-level metadata (directory mode: rank 0's file,
// minus the verifyio.* bookkeeping keys — what the materialized Trace.Meta
// holds).
func (s *Stream) Meta() map[string]string { return s.meta }

// Counts returns the per-rank emitted record counts so far; after Next has
// returned io.EOF it is the full per-rank record count of the trace.
func (s *Stream) Counts() []int { return s.counts }

// Stats returns the tolerate-mode salvage stats. It is only complete after
// Next has returned io.EOF.
func (s *Stream) Stats() *DecodeStats {
	if s.stats == nil {
		return &DecodeStats{}
	}
	return s.stats
}

// Sources returns the directory's per-rank sources, ascending by world
// rank: one per rank file whose metadata prescan succeeded (in strict mode,
// every rank). Drain them instead of calling Next to decode the ranks
// concurrently, at most StreamOptions.Concurrency (capped at the number of
// sources) at a time, then call Next once: it walks the drained sources in
// rank order, returning the lowest failing rank's error or io.EOF with Stats
// and Counts final. Nil in single-reader mode.
func (s *Stream) Sources() []*RankSource { return s.srcs }

// Next returns the next batch, or io.EOF when the trace is exhausted (after
// which Stats and Counts are final). Errors are classified like the
// materializing decoders'; after an error the stream is dead.
func (s *Stream) Next() (*Batch, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.closed {
		return nil, errors.New("trace: stream closed")
	}
	if s.done {
		return nil, io.EOF
	}
	var b *Batch
	var err error
	if s.single != nil {
		b, err = s.nextSingle()
	} else {
		b, err = s.nextDir()
	}
	if err != nil {
		if err != io.EOF {
			s.err = err
		} else {
			s.done = true
			s.finalize()
		}
		return nil, err
	}
	return b, nil
}

func (s *Stream) nextSingle() (*Batch, error) {
	src := s.single
	for {
		b, err := src.ps.nextBatch(s.takeBuf(), s.rankWindow)
		if err == io.EOF {
			stats, ferr := src.ps.finish()
			if ferr == nil && !s.opts.Tolerate {
				ferr = src.d.checkTrailer(src.fr)
			}
			if ferr != nil {
				return nil, ferr
			}
			s.stats = stats
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
		if len(b.recs) == 0 {
			continue
		}
		return s.emit(b, nil), nil
	}
}

// nextDir is the rank-ordered walk over the rank sources.
func (s *Stream) nextDir() (*Batch, error) {
	for ; s.idx < len(s.srcs); s.idx++ {
		b, err := s.srcs[s.idx].Next()
		if err != io.EOF {
			return b, err
		}
	}
	s.finishDirStats()
	return nil, io.EOF
}

// emit wraps a decoded batch and charges it to the resident accounting.
func (s *Stream) emit(b rawBatch, src *RankSource) *Batch {
	out := &Batch{Rank: b.rank, Start: b.start, Recs: b.recs, cost: b.cost, s: s, src: src}
	s.mu.Lock()
	s.counts[out.Rank] += len(out.Recs)
	s.resident += b.cost
	s.peak = max(s.peak, s.resident)
	if src != nil {
		src.resident += b.cost
		src.peak = max(src.peak, src.resident)
	}
	s.mu.Unlock()
	return out
}

// Rank returns the source's world rank.
func (rs *RankSource) Rank() int { return rs.rank }

// Next returns the rank's next batch, or io.EOF once the rank file is
// exhausted (or, in tolerate mode, salvaged nothing). Errors are those
// Stream.Next reports for the rank; after one the source is dead.
func (rs *RankSource) Next() (*Batch, error) {
	if rs.err != nil {
		return nil, rs.err
	}
	if rs.done {
		return nil, io.EOF
	}
	s := rs.s
	if rs.src == nil {
		if err := rs.open(); err != nil {
			if s.opts.Tolerate {
				rs.failed, rs.done = err, true
				return nil, io.EOF
			}
			rs.err = err
			return nil, err
		}
	}
	for {
		b, err := rs.src.ps.nextBatch(s.takeBuf(), s.rankWindow)
		if err == io.EOF {
			if err := rs.finish(); err != nil {
				rs.err = err
				return nil, err
			}
			rs.done = true
			return nil, io.EOF
		}
		if err != nil {
			// Tolerate-mode record damage is salvaged inside nextBatch, so
			// an error here is strict mode failing — name the file, remap
			// the in-file rank to the world rank, and stop.
			remapErr(err, rs.rank)
			rs.err = fmt.Errorf("trace: %s: %w", s.names[rs.rank], err)
			rs.close()
			return nil, rs.err
		}
		// Each file is a single-rank trace; batches for any other in-file
		// rank are decoded (for error fidelity) but not part of the world
		// trace.
		if b.rank != 0 {
			s.putBuf(b.recs)
			continue
		}
		if len(b.recs) == 0 {
			continue
		}
		b.rank = rs.rank
		for i := range b.recs {
			b.recs[i].Rank = rs.rank
		}
		return s.emit(b, rs), nil
	}
}

// open opens the rank's file and decodes its eager sections.
func (rs *RankSource) open() error {
	s, rank := rs.s, rs.rank
	name := s.names[rank]
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		return err
	}
	var span *obs.Span
	if s.oc.T != nil {
		_, span = s.oc.StartLane("decode/rank-"+strconv.Itoa(rank), "read-rank", obs.Int("rank", rank))
	}
	src, err := openSource(f, s.opts.DecodeOptions)
	if err != nil {
		span.End()
		f.Close()
		remapErr(err, rank)
		if s.opts.Tolerate {
			return err
		}
		return fmt.Errorf("trace: %s: %w", name, err)
	}
	src.f = f
	rs.src, rs.span = src, span
	return nil
}

// finish completes the rank file: salvage stats, strict trailer checks,
// span end.
func (rs *RankSource) finish() error {
	src, rank := rs.src, rs.rank
	stats, ferr := src.ps.finish()
	if ferr == nil && !rs.s.opts.Tolerate {
		ferr = src.d.checkTrailer(src.fr)
	}
	rs.close()
	if ferr != nil {
		// finish only fails in strict mode (tolerate salvages).
		remapErr(ferr, rank)
		return fmt.Errorf("trace: %s: %w", rs.s.names[rank], ferr)
	}
	// The file's salvage stats are for its in-file ranks; report the world
	// rank the file name declares.
	for _, rr := range stats.Ranks {
		remapErr(rr.Err, rank)
		rr.Rank = rank
		rs.entries = append(rs.entries, rr)
	}
	return nil
}

// close releases the rank file; idempotent.
func (rs *RankSource) close() {
	if rs.src != nil {
		rs.src.close()
		rs.span.End()
	}
}

// remapErr rewrites a single-rank file's in-file rank 0 to the world rank.
func remapErr(err error, rank int) {
	if de, ok := AsDecodeError(err); ok && de.Rank == 0 {
		de.Rank = rank
	}
}

// finishDirStats assembles the salvage stats: the rank files' own entries
// in rank order, then entries for ranks that contributed nothing — files
// that failed to open or decode, and ranks with no file at all.
func (s *Stream) finishDirStats() {
	s.stats = &DecodeStats{}
	failed := s.failed
	for _, src := range s.srcs {
		s.stats.Ranks = append(s.stats.Ranks, src.entries...)
		if src.failed != nil {
			failed[src.rank] = src.failed
		}
	}
	if s.opts.Tolerate {
		present := make(map[int]bool, len(s.srcs))
		for _, src := range s.srcs {
			if failed[src.rank] == nil {
				present[src.rank] = true
			}
		}
		for rank := 0; rank < s.nranks; rank++ {
			if present[rank] {
				continue
			}
			err := failed[rank]
			if err == nil {
				err = &DecodeError{
					Kind: Truncated, Section: "directory",
					Rank: rank, Record: -1,
					Err: errors.New("missing rank file"),
				}
			}
			s.stats.Ranks = append(s.stats.Ranks, RankRecovery{Rank: rank, Salvaged: 0, Dropped: -1, Err: err})
		}
	}
	sort.Slice(s.stats.Ranks, func(i, j int) bool { return s.stats.Ranks[i].Rank < s.stats.Ranks[j].Rank })
}

// finalize publishes the end-of-stream telemetry and ends the read-trace
// span.
func (s *Stream) finalize() {
	if r := s.oc.R; r != nil {
		decoded := 0
		for _, n := range s.counts {
			decoded += n
		}
		r.Counter("trace.records_decoded").Add(int64(decoded))
		r.Counter("trace.ranks_salvaged").Add(int64(len(s.Stats().Ranks)))
		r.Counter("trace.records_salvaged").Add(int64(s.Stats().Salvaged()))
		dropped, _ := s.Stats().Dropped()
		r.Counter("trace.records_dropped").Add(int64(dropped))
		r.Gauge("decode.peak_resident_bytes").SetMax(s.PeakResidentBytes())
	}
	if s.span != nil {
		s.span.End()
		s.span = nil
	}
}

// PeakResidentBytes reports the high-water mark of unreleased batch cost —
// the quantity the decode.peak_resident_bytes gauge exports. With
// an effective concurrency above 1 the ranks decode on their own schedule,
// so it reports the deterministic bound instead: the sum of that many
// largest per-rank high-water marks (at most that many ranks hold batches at
// once). A Concurrency at or above the rank count reports the same value as
// one equal to it.
func (s *Stream) PeakResidentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.concurrency()
	if c == 1 || s.single != nil {
		return s.peak
	}
	peaks := make([]int64, len(s.srcs))
	for i, src := range s.srcs {
		peaks[i] = src.peak
	}
	slices.Sort(peaks)
	var sum int64
	for i := len(peaks) - 1; i >= 0 && i >= len(peaks)-c; i-- {
		sum += peaks[i]
	}
	return sum
}

// Close releases the stream's resources. It is idempotent; a stream that
// already returned io.EOF needs no Close but tolerates one. Call it only
// once no source is being drained.
func (s *Stream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	for _, src := range s.srcs {
		src.close()
	}
	if s.single != nil {
		s.single.close()
		s.single = nil
	}
	if r := s.oc.R; r != nil {
		r.Gauge("decode.peak_resident_bytes").SetMax(s.PeakResidentBytes())
	}
	if s.span != nil {
		s.span.End()
		s.span = nil
	}
	return nil
}

func (s *Stream) takeBuf() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.pool); n > 0 {
		buf := s.pool[n-1]
		s.pool = s.pool[:n-1]
		return buf
	}
	return nil
}

func (s *Stream) putBuf(buf []Record) {
	if cap(buf) > 0 {
		s.mu.Lock()
		s.pool = append(s.pool, buf[:0])
		s.mu.Unlock()
	}
}

// ---------------------------------------------------------------------------
// payloadStream: the shared incremental record-decoding core.

// rawBatch is one decoded run of records before any world-rank renumbering.
type rawBatch struct {
	rank  int
	start int
	recs  []Record
	cost  int64
}

type pendingTrim struct{ rank, keep, total int }

// payloadStream decodes the payload of one encoded trace incrementally. It
// is the single implementation behind both the materializing decodeTrace and
// the streaming API: newPayloadStream eagerly decodes the metadata, string
// table, and rank count; nextBatch then decodes records on demand; finish
// runs the deferred validation and assembles the salvage stats.
type payloadStream struct {
	d        *decoder
	tolerate bool

	meta   map[string]string
	strs   []string
	str    func(uint64) (string, error)
	nranks int

	// Cursor state for the records section.
	rank    int  // current rank; nranks once the section is exhausted
	inRank  bool // the current rank's record count has been read
	nrec    int
	next    int // next record index within the current rank
	lastRet int64

	// Incremental trace-invariant tracking — the streaming equivalent of
	// validRecordPrefix: records at or past the first violating index are
	// decoded (offsets, budget, and later errors must match the
	// materializing path) but never emitted.
	validRet int64
	cut      int // first invariant-violating index of this rank, -1 if none

	// Strict mode: the first invariant violation anywhere, reported from
	// finish exactly as Trace.Validate would after a full decode.
	violation error

	entries []RankRecovery // decode-failure salvage entries (tolerate)
	trims   []pendingTrim  // deferred invariant-trim entries (tolerate)
	damaged map[int]bool
	done    bool
}

// newPayloadStream decodes the eager sections. Damage here fails in both
// modes: nothing downstream is interpretable without them.
func newPayloadStream(d *decoder, tolerate bool) (*payloadStream, error) {
	ps := &payloadStream{d: d, tolerate: tolerate}
	if tolerate {
		ps.damaged = make(map[int]bool)
	}
	var err error
	if ps.meta, err = d.decodeMetaSection(); err != nil {
		return nil, err
	}

	d.section = "string-table"
	sectionStart := d.off
	nstrs, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nstrs > uint64(d.lim.MaxStrings) {
		return nil, d.fail(LimitExceeded, fmt.Errorf("string table size %d exceeds limit %d", nstrs, d.lim.MaxStrings))
	}
	d.span("string-count", -1, -1, sectionStart)
	strs := make([]string, 0, capHint(nstrs, d.hintMax(stringOverhead, 1<<16)))
	for i := uint64(0); i < nstrs; i++ {
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		strs = append(strs, s)
	}
	d.span("string-table", -1, -1, sectionStart)
	ps.strs = strs
	ps.str = func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", d.fail(Corrupt, fmt.Errorf("string index %d out of table (%d entries)", i, len(strs)))
		}
		return strs[i], nil
	}

	d.section = "records"
	sectionStart = d.off
	nranks, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nranks > uint64(d.lim.MaxRanks) {
		return nil, d.fail(LimitExceeded, fmt.Errorf("rank count %d exceeds limit %d", nranks, d.lim.MaxRanks))
	}
	if err := d.charge(int64(nranks) * rankOverhead); err != nil {
		return nil, err
	}
	d.span("nranks", -1, -1, sectionStart)
	ps.nranks = int(nranks)
	return ps, nil
}

// markLost records that every rank from `from` on is gone with its record
// count unknown (the stream is unsyncable past the cut).
func (ps *payloadStream) markLost(from int, err error) {
	for r := from; r < ps.nranks; r++ {
		ps.entries = append(ps.entries, RankRecovery{Rank: r, Salvaged: 0, Dropped: -1, Err: err})
		ps.damaged[r] = true
	}
}

// nextBatch decodes records into buf (reused when non-nil) until the decoded
// cost reaches maxCost or the current rank's records end; batches never span
// ranks, so with maxCost <= 0 each rank arrives as one batch. It returns
// io.EOF once the records section is exhausted; the caller must then call
// finish (and, in strict mode, the trailer checks). In tolerate mode record
// damage never surfaces as an error: the partial batch holding the salvaged
// tail is returned and the next call reports io.EOF.
func (ps *payloadStream) nextBatch(buf []Record, maxCost int64) (rawBatch, error) {
	d := ps.d
	for {
		if ps.done {
			return rawBatch{}, io.EOF
		}
		if !ps.inRank {
			if ps.rank >= ps.nranks {
				ps.done = true
				d.rank, d.record = -1, -1
				return rawBatch{}, io.EOF
			}
			d.rank, d.record = ps.rank, -1
			countStart := d.off
			nrec, err := d.uvarint()
			if err == nil && nrec > uint64(d.lim.MaxRecords) {
				err = d.fail(LimitExceeded, fmt.Errorf("record count %d exceeds limit %d", nrec, d.lim.MaxRecords))
			}
			if err != nil {
				if ps.tolerate {
					ps.markLost(ps.rank, err)
					ps.done = true
					d.rank, d.record = -1, -1
					return rawBatch{}, io.EOF
				}
				return rawBatch{}, err
			}
			d.span("rank-count", ps.rank, -1, countStart)
			ps.inRank = true
			ps.nrec = int(nrec)
			ps.next = 0
			ps.lastRet = 0
			ps.validRet = -1
			ps.cut = -1
		}
		b := rawBatch{rank: ps.rank, start: ps.next}
		if buf != nil {
			b.recs = buf[:0]
			buf = nil
		} else if left := ps.nrec - ps.next; left > 0 {
			hint := capHint(uint64(left), d.hintMax(recordOverhead, 1<<14))
			if maxCost > 0 {
				if w := int(maxCost/recordOverhead) + 1; w < hint {
					hint = w
				}
			}
			b.recs = make([]Record, 0, hint)
		}
		for ps.next < ps.nrec {
			d.record = ps.next
			recStart := d.off
			budget0 := d.budget
			rec, err := d.decodeRecord(ps.str, ps.rank, ps.next, &ps.lastRet)
			if err != nil {
				if !ps.tolerate {
					return rawBatch{}, err
				}
				keep := ps.next
				if ps.cut >= 0 {
					keep = ps.cut
				}
				ps.entries = append(ps.entries, RankRecovery{
					Rank: ps.rank, Salvaged: keep, Dropped: ps.nrec - keep, Err: err,
				})
				ps.damaged[ps.rank] = true
				ps.markLost(ps.rank+1, err)
				ps.done = true
				d.rank, d.record = -1, -1
				if len(b.recs) > 0 {
					return b, nil
				}
				return rawBatch{}, io.EOF
			}
			cost := budget0 - d.budget
			d.span("record", ps.rank, ps.next, recStart)
			ps.next++
			if ps.cut < 0 {
				if rec.Ret <= ps.validRet || rec.Ret < rec.Tick || rec.Tick < 0 {
					ps.cut = ps.next - 1
					if !ps.tolerate && ps.violation == nil {
						ps.violation = invariantError(ps.rank, ps.next-1, &rec, ps.validRet)
					}
				} else {
					ps.validRet = rec.Ret
					b.recs = append(b.recs, rec)
					b.cost += cost
				}
			}
			if maxCost > 0 && b.cost >= maxCost {
				break
			}
		}
		if ps.next >= ps.nrec {
			// Rank finished cleanly; a rank that decoded records violating
			// the invariants is trimmed — deferred so the stats entry can
			// carry the final payload offset, as the materializing trim
			// pass does.
			d.record = -1
			if ps.tolerate && ps.cut >= 0 && !ps.damaged[ps.rank] {
				ps.trims = append(ps.trims, pendingTrim{rank: ps.rank, keep: ps.cut, total: ps.nrec})
			}
			ps.rank++
			ps.inRank = false
		}
		if len(b.recs) > 0 {
			return b, nil
		}
	}
}

// finish completes the payload decode: strict mode reports the deferred
// invariant violation the way Trace.Validate would; tolerate mode assembles
// the salvage stats (decode-failure entries plus invariant trims), sorted by
// rank. Call only after nextBatch returned io.EOF.
func (ps *payloadStream) finish() (*DecodeStats, error) {
	d := ps.d
	if !ps.tolerate {
		if ps.violation != nil {
			d.section = "validate"
			return nil, d.fail(Corrupt, ps.violation)
		}
		return &DecodeStats{}, nil
	}
	stats := &DecodeStats{Ranks: ps.entries}
	for _, tr := range ps.trims {
		verr := &DecodeError{
			Kind: Corrupt, Section: "validate",
			Rank: tr.rank, Record: tr.keep, Offset: d.off,
			Err: errors.New("record violates trace invariants"),
		}
		stats.Ranks = append(stats.Ranks, RankRecovery{
			Rank: tr.rank, Salvaged: tr.keep, Dropped: tr.total - tr.keep, Err: verr,
		})
	}
	sort.Slice(stats.Ranks, func(i, j int) bool { return stats.Ranks[i].Rank < stats.Ranks[j].Rank })
	return stats, nil
}

// invariantError reproduces the Trace.Validate message for the first
// violating record (decoding guarantees the structural fields, so only the
// timestamp invariants can fail here).
func invariantError(rank, seq int, rec *Record, lastRet int64) error {
	switch {
	case rec.Ret <= lastRet:
		return fmt.Errorf("trace: rank %d record %d return tick %d not increasing (prev %d)", rank, seq, rec.Ret, lastRet)
	case rec.Ret < rec.Tick:
		return fmt.Errorf("trace: rank %d record %d returns (%d) before entry (%d)", rank, seq, rec.Ret, rec.Tick)
	default:
		return fmt.Errorf("trace: rank %d record %d negative entry tick %d", rank, seq, rec.Tick)
	}
}
