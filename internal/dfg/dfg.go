// Package dfg derives per-rank directly-follows graphs (DFGs) of I/O
// phases from a decoded trace and diffs them across ranks.
//
// A DFG is the process-mining view of one rank's I/O behaviour: nodes are
// normalized call classes (metadata, read, write, sync, comm) tagged with
// the rank-local file role they act on, and a directed edge u->v counts how
// often an event of class v directly followed one of class u in program
// order, with the bytes moved and a logical-tick inter-arrival histogram on
// each edge. Phase structure (write burst, barrier, read-back) shows up as
// the graph's shape; a rank whose shape or edge weights deviate from the
// rank-majority graph is a divergent rank or a straggler.
//
// Classification covers the leaf layers only — POSIX file calls and plain
// MPI communication. Library wrappers (HDF5, PnetCDF, MPI-IO) are skipped:
// their nested POSIX records already appear in the stream, and counting
// both would double-weight every wrapped operation.
//
// Graphs build incrementally from trace.Stream batches (Builder.Feed keeps
// only per-file handle state and the node/edge accumulators, so memory is
// bounded by graph size, never trace size), or from a materialized trace
// with rank-sharded parallelism (FromTrace). Both paths produce identical,
// byte-deterministic output at any worker count: per-rank graphs are pure
// left-to-right folds over that rank's records, and every exported slice is
// sorted.
package dfg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"verifyio/internal/obs"
	"verifyio/internal/par"
	"verifyio/internal/trace"
)

// TickBounds is the bucket layout of the per-edge inter-arrival histograms:
// logical ticks between the completion of an event and the completion of
// its successor, in powers of two. One leaf call costs two ticks, so the
// low buckets separate back-to-back syscalls from phases separated by
// library work or communication.
var TickBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Node is one call class observed on a rank.
type Node struct {
	// Label is "class:filetag" for file classes ("write:f0") and "comm"
	// for communication. File tags number distinct file identities in
	// first-use order per rank, mirroring the conflict replayer's fid
	// canonicalization ({path, unlink-generation} keys), so the same role
	// gets the same tag on every rank regardless of real fd values.
	Label string `json:"label"`
	Count int64  `json:"count"`
	Bytes int64  `json:"bytes,omitempty"`
}

// Edge is one observed succession u -> v.
type Edge struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Count int64  `json:"count"`
	// Bytes sums the bytes moved by the destination events.
	Bytes int64 `json:"bytes,omitempty"`
	// Interarrival is the logical-tick gap distribution between the
	// completion of the source event and the completion of the
	// destination event, bucketed by TickBounds.
	Interarrival obs.HistogramSnapshot `json:"interarrival"`
}

// Graph is one rank's directly-follows graph. Nodes and Edges are sorted
// by label, so equal graphs marshal byte-equal.
type Graph struct {
	Rank int `json:"rank"`
	// Events is the number of records classified into the graph.
	Events int64  `json:"events"`
	Nodes  []Node `json:"nodes"`
	Edges  []Edge `json:"edges"`
	// StructFP fingerprints the graph's shape only (node and edge
	// labels); ranks with equal StructFP do the same kinds of I/O in the
	// same successions, whatever the counts.
	StructFP string `json:"struct_fp"`
	// Fingerprint additionally covers counts and bytes: equal
	// fingerprints mean behaviourally identical ranks.
	Fingerprint string `json:"fingerprint"`
}

// edgeKey identifies an edge by its endpoint labels.
type edgeKey struct{ from, to string }

// nodeAcc and edgeAcc are the mutable accumulators behind Node and Edge.
type nodeAcc struct{ count, bytes int64 }

type edgeAcc struct {
	count, bytes int64
	hist         *obs.Histogram
}

// rankBuilder folds one rank's records into its DFG. The fold is pure
// left-to-right, so it accepts any batch partitioning of the rank's stream.
type rankBuilder struct {
	rank    int
	fids    map[localKey]int // {path, unlink-gen} -> rank-local file id
	unlinks map[string]int   // path -> unlinks seen so far
	handles map[string]int   // live handle arg -> file id
	nfids   int
	nodes   map[string]*nodeAcc
	edges   map[edgeKey]*edgeAcc
	prev    string // previous event's node label ("" before the first)
	prevRet int64  // previous event's completion tick
	events  int64
}

type localKey struct {
	path string
	gen  int
}

func newRankBuilder(rank int) *rankBuilder {
	return &rankBuilder{
		rank:    rank,
		fids:    make(map[localKey]int),
		unlinks: make(map[string]int),
		handles: make(map[string]int),
		nodes:   make(map[string]*nodeAcc),
		edges:   make(map[edgeKey]*edgeAcc),
	}
}

// fidOf resolves a path to the rank-local id of its current identity,
// assigning ids in first-use order (the same canonicalization the conflict
// replayer applies, so tags line up with its file ids).
func (rb *rankBuilder) fidOf(path string) int {
	k := localKey{path: path, gen: rb.unlinks[path]}
	id, ok := rb.fids[k]
	if !ok {
		id = rb.nfids
		rb.nfids++
		rb.fids[k] = id
	}
	return id
}

func fileTag(fid int) string { return "f" + strconv.Itoa(fid) }

// eventOf classifies one record into a DFG event. ok reports whether the
// record is a DFG event at all; non-leaf layers and unrecognized calls are
// skipped.
func (rb *rankBuilder) eventOf(rec *trace.Record) (label string, nbytes int64, ok bool) {
	switch rec.Layer {
	case trace.LayerMPI:
		return "comm", 0, true
	case trace.LayerPOSIX:
		// fall through to the call switch
	default:
		return "", 0, false
	}

	// tagOfHandle resolves a live handle to its file tag; operations on
	// handles the builder never saw opened keep a distinguishable tag
	// instead of being dropped (a truncated stream should still graph).
	tagOfHandle := func(h string) string {
		if fid, ok := rb.handles[h]; ok {
			return fileTag(fid)
		}
		return "f?"
	}

	switch rec.Func {
	case "open", "fopen":
		path, handle := rec.Arg(0), rec.Arg(2)
		if path == "" {
			return "", 0, false
		}
		fid := rb.fidOf(path)
		if handle != "" {
			rb.handles[handle] = fid
		}
		return "meta:" + fileTag(fid), 0, true

	case "close", "fclose":
		h := rec.Arg(0)
		tag := tagOfHandle(h)
		delete(rb.handles, h)
		return "meta:" + tag, 0, true

	case "lseek", "fseek":
		return "meta:" + tagOfHandle(rec.Arg(0)), 0, true

	case "fsync", "fdatasync":
		return "sync:" + tagOfHandle(rec.Arg(0)), 0, true

	case "read", "pread", "fread", "readv":
		return "read:" + tagOfHandle(rec.Arg(0)), opBytes(rec), true

	case "write", "pwrite", "fwrite", "writev":
		return "write:" + tagOfHandle(rec.Arg(0)), opBytes(rec), true

	case "ftruncate":
		// Truncation rewrites file contents: class write, size unknown
		// without EOF replay, so it carries no byte weight.
		return "write:" + tagOfHandle(rec.Arg(0)), 0, true

	case "unlink":
		path := rec.Arg(0)
		if path == "" {
			return "", 0, false
		}
		fid := rb.fidOf(path)
		rb.unlinks[path]++
		return "meta:" + fileTag(fid), 0, true

	case "stat", "access":
		path := rec.Arg(0)
		if path == "" {
			return "", 0, false
		}
		return "meta:" + fileTag(rb.fidOf(path)), 0, true
	}
	return "", 0, false
}

// opBytes extracts the byte count a data operation moved, 0 when the
// record's arguments don't say (or are corrupt).
func opBytes(rec *trace.Record) int64 {
	switch rec.Func {
	case "read", "write", "pread", "pwrite":
		if n, ok := rec.IntArg(1); ok && n > 0 {
			return n
		}
	case "fread", "fwrite":
		size, okS := rec.IntArg(1)
		count, okC := rec.IntArg(2)
		if okS && okC && size > 0 && count > 0 && size <= math.MaxInt64/count {
			return size * count
		}
	case "readv", "writev":
		cnt, ok := rec.IntArg(1)
		if !ok || cnt < 0 || cnt > int64(len(rec.Args)) {
			return 0
		}
		total := int64(0)
		for k := 0; k < int(cnt); k++ {
			n, ok := rec.IntArg(2 + k)
			if !ok || n < 0 {
				return 0
			}
			total += n
		}
		return total
	}
	return 0
}

// step folds the next record into the rank's graph.
func (rb *rankBuilder) step(rec *trace.Record) {
	label, nbytes, ok := rb.eventOf(rec)
	if !ok {
		return
	}
	n := rb.nodes[label]
	if n == nil {
		n = &nodeAcc{}
		rb.nodes[label] = n
	}
	n.count++
	n.bytes += nbytes
	if rb.prev != "" {
		k := edgeKey{from: rb.prev, to: label}
		e := rb.edges[k]
		if e == nil {
			e = &edgeAcc{hist: obs.NewHistogram(TickBounds)}
			rb.edges[k] = e
		}
		e.count++
		e.bytes += nbytes
		gap := rec.Ret - rb.prevRet
		if gap < 0 {
			gap = 0
		}
		e.hist.Observe(gap)
	}
	rb.prev = label
	rb.prevRet = rec.Ret
	rb.events++
}

func (rb *rankBuilder) feed(recs []trace.Record) {
	for i := range recs {
		rb.step(&recs[i])
	}
}

// graph freezes the accumulators into a sorted, fingerprinted Graph.
func (rb *rankBuilder) graph() Graph {
	g := Graph{Rank: rb.rank, Events: rb.events}
	labels := make([]string, 0, len(rb.nodes))
	for l := range rb.nodes {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		n := rb.nodes[l]
		g.Nodes = append(g.Nodes, Node{Label: l, Count: n.count, Bytes: n.bytes})
	}
	keys := make([]edgeKey, 0, len(rb.edges))
	for k := range rb.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for _, k := range keys {
		e := rb.edges[k]
		g.Edges = append(g.Edges, Edge{
			From: k.from, To: k.to,
			Count: e.count, Bytes: e.bytes,
			Interarrival: e.hist.Snapshot(),
		})
	}
	g.StructFP, g.Fingerprint = fingerprints(&g)
	return g
}

// fingerprints hashes the graph twice: shape only, and shape plus weights.
func fingerprints(g *Graph) (structFP, fullFP string) {
	hs := sha256.New()
	hf := sha256.New()
	writeInt := func(h io.Writer, v int64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		io.WriteString(hs, "n\x00"+n.Label+"\x00")
		io.WriteString(hf, "n\x00"+n.Label+"\x00")
		writeInt(hf, n.Count)
		writeInt(hf, n.Bytes)
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		io.WriteString(hs, "e\x00"+e.From+"\x00"+e.To+"\x00")
		io.WriteString(hf, "e\x00"+e.From+"\x00"+e.To+"\x00")
		writeInt(hf, e.Count)
		writeInt(hf, e.Bytes)
	}
	s, f := hs.Sum(nil), hf.Sum(nil)
	return hex.EncodeToString(s[:12]), hex.EncodeToString(f[:12])
}

// Builder accumulates per-rank DFGs from record batches. Feed accepts
// batches in any order across ranks but program order within a rank —
// exactly what trace.Stream's rank-major batches deliver. The builder
// copies what it needs out of each batch before returning, so callers may
// Release the batch immediately after Feed (the pool contract documented
// on trace.Batch.Release).
type Builder struct {
	ranks []*rankBuilder
	oc    obs.Ctx
}

// NewBuilder returns a builder expecting nranks ranks (grown on demand if
// a Feed names a higher rank). The obs context instruments Finish and
// receives the dfg.* gauges.
func NewBuilder(nranks int, oc obs.Ctx) *Builder {
	b := &Builder{oc: oc}
	b.grow(nranks)
	return b
}

func (b *Builder) grow(n int) {
	for len(b.ranks) < n {
		b.ranks = append(b.ranks, newRankBuilder(len(b.ranks)))
	}
}

// Feed folds one batch of rank's records into that rank's graph.
func (b *Builder) Feed(rank int, recs []trace.Record) {
	if rank < 0 {
		return
	}
	b.grow(rank + 1)
	b.ranks[rank].feed(recs)
}

// Finish freezes the graphs, scores every rank against the rank-majority
// graph, and publishes the dfg.* gauges.
func (b *Builder) Finish() *Fleet {
	return finishRanks(b.ranks, b.oc)
}

// Options tunes FromTrace.
type Options struct {
	// Workers bounds the rank-sharding parallelism (0 = GOMAXPROCS,
	// 1 = serial). The output is identical at any worker count.
	Workers int
	// Obs instruments the build and receives the dfg.* gauges.
	Obs obs.Ctx
}

// FromTrace builds the fleet's DFGs from a materialized trace, sharding
// rank builds across workers (each rank's fold is independent).
func FromTrace(tr *trace.Trace, opts Options) *Fleet {
	workers := par.Resolve(opts.Workers)
	oc, span := opts.Obs.Start("dfg",
		obs.Int("ranks", tr.NumRanks()), obs.Int("workers", workers))
	span.SetCat("dfg")
	defer span.End()

	rbs := make([]*rankBuilder, tr.NumRanks())
	par.DoObs(oc, "dfg", workers, len(rbs), func(r int) {
		rb := newRankBuilder(r)
		rb.feed(tr.Ranks[r])
		rbs[r] = rb
	})
	return finishRanks(rbs, oc)
}

// StreamOptions tunes BuildStreamDir.
type StreamOptions struct {
	// Decode passes trace decoding options through (tolerate mode). Its
	// Obs field is overridden so the decode spans nest under the dfg span.
	Decode trace.DecodeOptions
	// WindowBytes bounds the decoded records resident at once, exactly as
	// trace.StreamOptions.WindowBytes.
	WindowBytes int64
	// Obs instruments the pass and receives the dfg.* gauges.
	Obs obs.Ctx
}

// BuildStreamDir builds the fleet's DFGs straight off the streaming
// decoder: each record batch is folded into its rank's graph and released,
// so peak memory is bounded by the decode window plus the graphs
// themselves, never the trace size.
func BuildStreamDir(dir string, opts StreamOptions) (*Fleet, error) {
	oc, span := opts.Obs.Start("dfg", obs.String("mode", "stream"))
	span.SetCat("dfg")
	defer span.End()

	dopts := opts.Decode
	dopts.Obs = oc
	s, err := trace.OpenStream(dir, trace.StreamOptions{DecodeOptions: dopts, WindowBytes: opts.WindowBytes})
	if err != nil {
		return nil, fmt.Errorf("dfg: read trace: %w", err)
	}
	defer s.Close()

	b := NewBuilder(s.NumRanks(), oc)
	for {
		batch, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dfg: read trace: %w", err)
		}
		b.Feed(batch.Rank, batch.Recs)
		batch.Release()
	}
	return b.Finish(), nil
}
