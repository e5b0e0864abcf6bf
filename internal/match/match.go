// Package match implements step 3 of the VerifyIO workflow: matching the
// MPI calls recorded in a trace to establish the synchronization order
// (Def. 2) between operations, and flagging unmatched or mismatched calls
// (the §V-D findings).
//
// Matching rules, following §IV-C:
//
//   - Point-to-point calls match by (communicator, source, destination,
//     tag) in FIFO order (MPI's non-overtaking rule). Wildcard receives
//     (MPI_ANY_SOURCE / MPI_ANY_TAG) are resolved from the actual source
//     and tag the tracer recorded out of the MPI_Status.
//
//   - Non-blocking operations are identified by request id; their
//     completion is the MPI_Wait*/MPI_Test* record that retired the
//     request. The happens-before edge of a matched message runs from the
//     send's initiation record to the receive's completion record.
//
//   - Collective calls match per communicator in program order: the k-th
//     collective on a communicator matches the k-th on every other member.
//     Communicator membership comes from the recorded MPI_Comm_dup/split
//     creation records (every communicator has a globally unique id).
//     A slot whose calls disagree on the function name, or that some
//     member never reaches, is reported as unmatched.
//
// Synchronization edges per collective follow its data flow:
//
//   - barrier-like (Barrier, Allreduce, Allgather, Alltoall, Comm_dup,
//     Comm_split, Comm_free): everything po-before the call on any rank
//     happens-before everything po-after the call on every other rank.
//     Encoded acyclically as pred(call_i) → call_j for i ≠ j, where pred is
//     the po-predecessor.
//   - rooted scatter-like (Bcast, Scatter): root's call → every other call.
//   - rooted gather-like (Reduce, Gather): every non-root call → root's
//     call.
//
// Collective MPI-IO data/metadata calls (MPI_File_open/close/sync/
// write_at_all/...) are matched for error detection but contribute no
// synchronization edges: MPI collective calls are not synchronizing unless
// they move data, which is exactly why the sync-barrier-sync construct is
// needed (§II-A4).
package match

import (
	"fmt"
	"strconv"
	"strings"

	"verifyio/internal/obs"
	"verifyio/internal/par"
	"verifyio/internal/trace"
)

// Edge is a synchronization-order edge: From happens-before To.
type Edge struct {
	From, To trace.Ref
}

// Problem is an unmatched or mismatched MPI call.
type Problem struct {
	// Kind classifies the problem.
	Kind ProblemKind
	// Refs are the involved records (one per rank where applicable).
	Refs []trace.Ref
	// Detail is a human-readable description.
	Detail string
}

// ProblemKind classifies matching failures.
type ProblemKind int

// Problem kinds.
const (
	// MismatchedCollective: members reached the same slot with different
	// collective functions (e.g. MPI_File_write_at_all vs
	// MPI_File_write_all — the ncmpi_wait bug).
	MismatchedCollective ProblemKind = iota
	// MissingCollective: a member made fewer collective calls on the
	// communicator than its peers (e.g. collective_error).
	MissingCollective
	// UnmatchedSend: a send with no matching receive.
	UnmatchedSend
	// UnmatchedRecv: a receive with no matching send.
	UnmatchedRecv
	// DanglingRequest: a non-blocking operation never completed by
	// MPI_Wait*/MPI_Test*.
	DanglingRequest
	// MalformedRecord: an MPI record whose arguments could not be
	// interpreted.
	MalformedRecord
)

var problemNames = map[ProblemKind]string{
	MismatchedCollective: "mismatched-collective",
	MissingCollective:    "missing-collective",
	UnmatchedSend:        "unmatched-send",
	UnmatchedRecv:        "unmatched-recv",
	DanglingRequest:      "dangling-request",
	MalformedRecord:      "malformed-record",
}

func (k ProblemKind) String() string {
	if s, ok := problemNames[k]; ok {
		return s
	}
	return fmt.Sprintf("problem(%d)", int(k))
}

// Result is the matcher's output.
type Result struct {
	// Edges are the synchronization-order edges.
	Edges []Edge
	// Problems are the unmatched/mismatched calls. A non-empty list means
	// the verification step cannot trust the happens-before order (the
	// gray rows of Fig. 4).
	Problems []Problem
	// Collectives is the number of matched collective slots.
	Collectives int
	// P2P is the number of matched point-to-point pairs.
	P2P int
}

// classification of MPI functions.
var (
	barrierLike = map[string]bool{
		"MPI_Barrier": true, "MPI_Allreduce": true, "MPI_Allgather": true,
		"MPI_Alltoall": true, "MPI_Comm_dup": true, "MPI_Comm_split": true,
		"MPI_Comm_free": true, "MPI_Ibarrier": true, "MPI_Iallreduce": true,
	}
	scatterLike = map[string]bool{"MPI_Bcast": true, "MPI_Scatter": true}
	gatherLike  = map[string]bool{"MPI_Reduce": true, "MPI_Gather": true}
	// prefixLike collectives order lower comm ranks before higher ones:
	// rank i's result depends on every rank j < i.
	prefixLike = map[string]bool{"MPI_Scan": true, "MPI_Exscan": true}
	// fileCollective calls are matched for error detection only.
	fileCollective = map[string]bool{
		"MPI_File_open": true, "MPI_File_close": true, "MPI_File_sync": true,
		"MPI_File_set_view": true, "MPI_File_set_size": true,
		"MPI_File_read_all": true, "MPI_File_write_all": true,
		"MPI_File_read_at_all": true, "MPI_File_write_at_all": true,
	}
)

// isCollective reports whether fn participates in slot matching, and how.
func collectiveClass(fn string) (sync bool, ok bool) {
	if barrierLike[fn] || scatterLike[fn] || gatherLike[fn] || prefixLike[fn] {
		return true, true
	}
	if fileCollective[fn] {
		return false, true
	}
	return false, false
}

// collEntry is one rank's participation in a collective slot.
type collEntry struct {
	fn         string
	init       trace.Ref
	completion trace.Ref // == init for blocking calls
	rootArg    int       // root for rooted collectives, else -1
}

// sendEntry is an unmatched send.
type sendEntry struct {
	init trace.Ref
	tag  int
}

// recvEntry is an unmatched receive (with resolved actual src/tag).
type recvEntry struct {
	init       trace.Ref
	completion trace.Ref
	src, tag   int // actual values from the status
	resolved   bool
}

// Options configures the matcher.
type Options struct {
	// Workers bounds the goroutines used for the per-rank scan phase. 0
	// means GOMAXPROCS; 1 forces the serial path. The result is identical
	// at every worker count.
	Workers int
	// Obs carries telemetry sinks; the zero Ctx disables instrumentation.
	Obs obs.Ctx
}

// Match replays the MPI records of tr with a GOMAXPROCS-wide worker pool;
// see MatchOpts.
func Match(tr *trace.Trace) (*Result, error) {
	return MatchOpts(tr, Options{})
}

// MatchOpts replays the MPI records of tr in two phases. Phase 1 feeds the
// ranks to a StreamMatcher in parallel, one whole rank per Feed: each scan
// runs against comm-world plus its own communicator registrations and
// touches only its own state and output buckets. Phase 2 is the matcher's
// finish: it merges the per-rank outputs in rank order, resolving the few
// steps whose outcome depends on another rank's registrations (see
// viewSend), and runs the (cheap, cross-rank) collective and point-to-point
// matching. The result equals a serial rank-major scan with one shared
// membership table — first registration of a gid wins — exactly, including
// on malformed traces, at every worker count.
func MatchOpts(tr *trace.Trace, opts Options) (*Result, error) {
	workers := par.Resolve(opts.Workers)
	oc, span := opts.Obs.StartLane("match", "match", obs.Int("ranks", len(tr.Ranks)))
	span.SetCat("match")
	defer span.End()

	sm := NewStreamMatcher(tr.NumRanks())
	par.DoObs(oc, "match-scan", workers, len(tr.Ranks), func(rank int) {
		_, sp := oc.StartLane("match/rank-"+strconv.Itoa(rank), "scan", obs.Int("rank", rank))
		sm.Feed(rank, tr.Ranks[rank])
		sp.End()
	})
	return sm.finish(oc), nil
}

// worldMembers is MPI_COMM_WORLD's member list: world rank i is comm rank i.
func worldMembers(nranks int) []int {
	world := make([]int, nranks)
	for i := range world {
		world[i] = i
	}
	return world
}

// finish is phase 2, shared by both front-ends: replay every rank's
// registrations in rank order into the global membership table (first
// registration wins, errors discarded), settle each rank's view-dependent
// steps against it, merge the per-rank outputs in rank order — the append
// order of a serial rank-major scan — then run the cross-rank collective and
// point-to-point matching.
func (sm *StreamMatcher) finish(oc obs.Ctx) *Result {
	m := &matcher{
		res:     &Result{},
		members: map[string][]int{"comm-world": sm.world},
		colls:   map[string]map[int][]collEntry{},
		sends:   map[p2pKey][]sendEntry{},
		recvs:   map[p2pKey][]recvEntry{},
	}
	_, mergeSpan := oc.Start("merge")
	firstRank := map[string]int{}
	for rank, sc := range sm.scanners {
		if sc == nil {
			continue
		}
		for _, reg := range sc.out.regs {
			if _, ok := m.members[reg[0]]; ok {
				continue
			}
			if registerComm(m.members, reg[0], reg[1]) == nil {
				firstRank[reg[0]] = rank
			}
		}
	}
	for rank, sc := range sm.scanners {
		if sc == nil {
			continue
		}
		out := sc.out
		lower := func(gid string) bool {
			r, ok := firstRank[gid]
			return ok && r < rank
		}
		out.settle(rank, m.members, lower)
		m.res.Problems = append(m.res.Problems, out.problems...)
		for gid, entries := range out.colls {
			byRank, ok := m.colls[gid]
			if !ok {
				byRank = map[int][]collEntry{}
				m.colls[gid] = byRank
			}
			byRank[rank] = entries
		}
		for key, entries := range out.sends {
			m.sends[key] = append(m.sends[key], entries...)
		}
		for key, entries := range out.recvs {
			m.recvs[key] = append(m.recvs[key], entries...)
		}
	}
	mergeSpan.End()

	_, collSpan := oc.Start("collectives")
	m.matchCollectives()
	collSpan.End()
	_, p2pSpan := oc.Start("p2p")
	m.matchP2P()
	p2pSpan.End()
	m.sortOutputs()
	if r := oc.R; r != nil {
		r.Counter("match.edges").Add(int64(len(m.res.Edges)))
		r.Counter("match.problems").Add(int64(len(m.res.Problems)))
		r.Counter("match.collectives").Add(int64(m.res.Collectives))
		r.Counter("match.p2p").Add(int64(m.res.P2P))
	}
	return m.res
}

// StreamMatcher runs matching over records as they decode. Each rank's
// records must arrive in program order, in any batch partitioning; the
// ranks may arrive in any order, interleaved however the caller likes, and
// Feed calls for distinct ranks may run concurrently. The Result is
// identical to MatchOpts' on the same trace.
type StreamMatcher struct {
	world    []int
	scanners []*rankScanner
}

// NewStreamMatcher prepares matching state for nranks ranks.
func NewStreamMatcher(nranks int) *StreamMatcher {
	return &StreamMatcher{world: worldMembers(nranks), scanners: make([]*rankScanner, nranks)}
}

// Feed scans the next records of one rank. The batch buffer is not
// retained.
func (sm *StreamMatcher) Feed(rank int, recs []trace.Record) {
	sc := sm.scanners[rank]
	if sc == nil {
		sc = newRankScanner(rank, sm.world)
		sm.scanners[rank] = sc
	}
	for i := range recs {
		sc.step(&recs[i])
	}
}

// Finish completes matching over everything fed so far.
func (sm *StreamMatcher) Finish(opts Options) (*Result, error) {
	oc, span := opts.Obs.StartLane("match", "match", obs.Int("ranks", len(sm.scanners)))
	span.SetCat("match")
	defer span.End()
	return sm.finish(oc), nil
}

type p2pKey struct {
	comm     string
	src, dst int // world ranks
	tag      int
}

type matcher struct {
	res *Result

	// members: communicator gid -> world ranks.
	members map[string][]int
	// colls: gid -> world rank -> ordered collective entries.
	colls map[string]map[int][]collEntry
	// sends/recvs: matching buckets.
	sends map[p2pKey][]sendEntry
	recvs map[p2pKey][]recvEntry
}

func (m *matcher) problem(kind ProblemKind, detail string, refs ...trace.Ref) {
	m.res.Problems = append(m.res.Problems, Problem{Kind: kind, Detail: detail, Refs: refs})
}

// pendingReq tracks a not-yet-completed non-blocking operation during the
// per-rank scan.
type pendingReq struct {
	fn   string
	init trace.Ref
	comm string
	peer int // dst for isend, requested src for irecv (may be -1)
	tag  int // requested tag (may be -1)
	// collGID/collIdx locate a non-blocking collective's entry so its
	// completion record can be filled in (indices, not pointers: the
	// per-rank entry slice may be reallocated by later appends).
	collGID string
	collIdx int
	// send is set for an MPI_Isend on a non-world communicator: the
	// request exists only if the send resolves (see viewSend), otherwise
	// the request id still names shadow, the entry this one replaced.
	send   *viewSend
	shadow *pendingReq
}

// live resolves a pending entry to the request its id actually names once
// every view-dependent send is settled, or nil.
func (p *pendingReq) live() *pendingReq {
	for p != nil && p.send != nil && !p.send.ok {
		p = p.shadow
	}
	return p
}

// viewSend is a send on a non-world communicator. Its destination and
// source resolve through the communicator's member list as a rank-major
// scan would see it: the lowest rank's registration of the gid, or this
// rank's own earlier one when no lower rank registered it. The scan
// resolves it against its own registrations; the merge re-resolves it when
// a lower rank registered the gid first. These are the only steps of the
// scan that depend on another rank's records.
type viewSend struct {
	fn       string
	ref      trace.Ref
	comm     string
	dst, tag int
	// recv is MPI_Sendrecv's receive half, nil for plain sends.
	recv *recvEntry
	// key and ok are the resolution: ok is false when the destination is
	// not a member, which settle reports as an unknown communicator.
	key p2pKey
	ok  bool
}

func (vs *viewSend) resolve(members map[string][]int, rank int) {
	dstWorld, ok := worldRank(members, vs.comm, vs.dst)
	srcComm, _ := commRank(members, vs.comm, rank)
	vs.key = p2pKey{comm: vs.comm, src: srcComm, dst: dstWorld, tag: vs.tag}
	vs.ok = ok
}

// lateCompletion is a completion whose request resolved to a view-dependent
// MPI_Isend entry: what it retires is known only after the merge.
type lateCompletion struct {
	p        *pendingReq
	at       trace.Ref
	src, tag int
}

// rankOut is one rank's scan output, merged rank-major in phase 2.
type rankOut struct {
	// colls: gid -> this rank's ordered collective entries.
	colls map[string][]collEntry
	// sends/recvs: this rank's contributions to the matching buckets.
	// Sends on other communicators than comm-world wait in views until
	// settle.
	sends    map[p2pKey][]sendEntry
	recvs    map[p2pKey][]recvEntry
	problems []Problem
	// regs: communicator registrations in record order, replayed into the
	// global membership table by the merge.
	regs [][2]string
	// badRegs: malformed registrations of a gid, reported by settle only if
	// no lower rank registered the gid first.
	badRegs []badReg
	views   []*viewSend
	late    []lateCompletion
	// pending: requests never completed, reported as dangling once the
	// merge knows which of them exist.
	pending map[string]*pendingReq
}

// badReg is a malformed registration of gid and the problem reporting it.
type badReg struct {
	gid string
	p   Problem
}

func (o *rankOut) problem(kind ProblemKind, detail string, refs ...trace.Ref) {
	o.problems = append(o.problems, Problem{Kind: kind, Detail: detail, Refs: refs})
}

// retire applies a completed request to the rank's output.
func (o *rankOut) retire(rank int, p *pendingReq, at trace.Ref, src, tag int) {
	switch {
	case p.collGID != "":
		o.colls[p.collGID][p.collIdx].completion = at
	case p.fn == "MPI_Irecv":
		key := p2pKey{comm: p.comm, src: src, dst: rank, tag: tag}
		o.recvs[key] = append(o.recvs[key], recvEntry{
			init: p.init, completion: at, src: src, tag: tag, resolved: true,
		})
	}
	// An MPI_Isend's edge uses its initiation record; nothing to do at
	// completion.
}

// settle finishes the rank's output once the global membership table is
// known: lower reports whether a lower rank registered a gid first (so its
// member list, not this rank's, is the one the rank-major scan used).
// Settled view sends join the buckets or are reported as sends on an
// unknown communicator, malformed registrations are reported unless a lower
// rank's registration made them moot, late completions retire what their
// request ids name, and the surviving pending requests are reported as
// dangling. The problems' order is sortOutputs' business.
func (o *rankOut) settle(rank int, members map[string][]int, lower func(gid string) bool) {
	for _, vs := range o.views {
		if lower(vs.comm) {
			vs.resolve(members, rank)
		}
		if !vs.ok {
			o.problem(MalformedRecord, vs.fn+": unknown communicator "+vs.comm, vs.ref)
			continue
		}
		o.sends[vs.key] = append(o.sends[vs.key], sendEntry{init: vs.ref, tag: vs.tag})
		if vs.recv != nil {
			key := p2pKey{comm: vs.comm, src: vs.recv.src, dst: rank, tag: vs.recv.tag}
			o.recvs[key] = append(o.recvs[key], *vs.recv)
		}
	}
	for _, b := range o.badRegs {
		if !lower(b.gid) {
			o.problems = append(o.problems, b.p)
		}
	}
	for _, lc := range o.late {
		if p := lc.p.live(); p != nil {
			o.retire(rank, p, lc.at, lc.src, lc.tag)
		}
	}
	for req, p := range o.pending {
		if p = p.live(); p != nil {
			o.problem(DanglingRequest,
				fmt.Sprintf("%s request %s never completed by MPI_Wait*/MPI_Test*", p.fn, req), p.init)
		}
	}
}

// rankScanner scans one rank's records, one batch at a time, against
// comm-world plus the rank's own communicator registrations. It mutates
// only its own state and output, which is what makes the scan phase
// embarrassingly parallel: everything the serial scan kept in loop-local
// closures lives here, plus the forward-tracked open-file table that
// replaces a backward scan for MPI-IO communicator recovery.
type rankScanner struct {
	rank    int
	members map[string][]int
	out     *rankOut
	// openByFd: fh -> comm of the most recent MPI_File_open that produced
	// it; lastOpen is the comm of the most recent open of any fh. Together
	// they answer "nearest preceding open" queries without looking back.
	openByFd map[string]string
	lastOpen string
	anyOpen  bool
}

func newRankScanner(rank int, world []int) *rankScanner {
	return &rankScanner{
		rank:    rank,
		members: map[string][]int{"comm-world": world},
		out: &rankOut{
			colls:   map[string][]collEntry{},
			sends:   map[p2pKey][]sendEntry{},
			recvs:   map[p2pKey][]recvEntry{},
			pending: map[string]*pendingReq{},
		},
		openByFd: map[string]string{},
	}
}

func (sc *rankScanner) addColl(gid string, e collEntry) int {
	sc.out.colls[gid] = append(sc.out.colls[gid], e)
	return len(sc.out.colls[gid]) - 1
}

// complete retires a request id at the given completion record with the
// given actual (src, tag) status.
func (sc *rankScanner) complete(req string, at trace.Ref, src, tag int) {
	p, ok := sc.out.pending[req]
	if !ok {
		// Completing an unknown/already-done request: tolerated
		// (MPI_Test on an inactive request is legal).
		return
	}
	delete(sc.out.pending, req)
	if p.send != nil {
		sc.out.late = append(sc.out.late, lateCompletion{p: p, at: at, src: src, tag: tag})
		return
	}
	sc.out.retire(sc.rank, p, at, src, tag)
}

// send records a send from rec (initiated at ref) to comm rank dst. Sends
// on comm-world resolve now; others become view sends, settled by the
// merge. It reports false when the send is known here to have an unknown
// communicator (the caller stops).
func (sc *rankScanner) send(rec *trace.Record, ref trace.Ref, comm string, dst, tag int, recv *recvEntry) (*viewSend, bool) {
	vs := &viewSend{fn: rec.Func, ref: ref, comm: comm, dst: dst, tag: tag, recv: recv}
	vs.resolve(sc.members, sc.rank)
	if comm == "comm-world" {
		if !vs.ok {
			sc.out.problem(MalformedRecord, rec.Func+": unknown communicator "+comm, ref)
			return nil, false
		}
		sc.out.sends[vs.key] = append(sc.out.sends[vs.key], sendEntry{init: ref, tag: tag})
		if recv != nil {
			key := p2pKey{comm: comm, src: recv.src, dst: sc.rank, tag: recv.tag}
			sc.out.recvs[key] = append(sc.out.recvs[key], *recv)
		}
		return nil, true
	}
	sc.out.views = append(sc.out.views, vs)
	return vs, true
}

// register records a communicator creation. A malformed member list is
// reported only if no lower rank registered the gid first (registration is
// first-wins, so the damaged list would never have been read): the merge
// decides. A missing gid or list is malformed whoever registered first.
func (sc *rankScanner) register(rec *trace.Record, ref trace.Ref, gid, list string) {
	sc.out.regs = append(sc.out.regs, [2]string{gid, list})
	err := registerComm(sc.members, gid, list)
	if err == nil {
		return
	}
	p := Problem{Kind: MalformedRecord, Detail: fmt.Sprintf("%s: %s", rec.Func, err), Refs: []trace.Ref{ref}}
	if gid == "" || list == "" {
		sc.out.problems = append(sc.out.problems, p)
		return
	}
	sc.out.badRegs = append(sc.out.badRegs, badReg{gid: gid, p: p})
}

// step scans one record.
func (sc *rankScanner) step(rec *trace.Record) {
	rank, out, pending := sc.rank, sc.out, sc.out.pending
	if rec.Layer != trace.LayerMPI && rec.Layer != trace.LayerMPIIO {
		return
	}
	ref := trace.Ref{Rank: rank, Seq: rec.Seq}
	malformed := func(why string) {
		out.problem(MalformedRecord, fmt.Sprintf("%s: %s", rec.Func, why), ref)
	}

	switch rec.Func {
	case "MPI_Send":
		comm, dst, tag, ok := commPeerTag(rec)
		if !ok {
			malformed("bad arguments")
			return
		}
		sc.send(rec, ref, comm, dst, tag, nil)

	case "MPI_Sendrecv":
		// [comm, dst, stag, scount, src, rtag, nrecv, aSrc, aTag]
		// — one record, two events: a send and a completed receive.
		comm, dst, stag, ok := commPeerTag(rec)
		aSrc, ok1 := rec.IntArg(7)
		aTag, ok2 := rec.IntArg(8)
		if !ok || !ok1 || !ok2 {
			malformed("bad arguments")
			return
		}
		sc.send(rec, ref, comm, dst, stag, &recvEntry{
			init: ref, completion: ref, src: int(aSrc), tag: int(aTag), resolved: true,
		})

	case "MPI_Isend":
		comm, dst, tag, ok := commPeerTag(rec)
		req := rec.Arg(4)
		if !ok || req == "" {
			malformed("bad arguments")
			return
		}
		vs, ok := sc.send(rec, ref, comm, dst, tag, nil)
		if !ok {
			return
		}
		p := &pendingReq{fn: rec.Func, init: ref, comm: comm, peer: dst, tag: tag}
		if vs != nil {
			p.send, p.shadow = vs, pending[req]
		}
		pending[req] = p

	case "MPI_Recv":
		// [comm, src, tag, n, actualSrc, actualTag]
		comm := rec.Arg(0)
		aSrc, ok1 := rec.IntArg(4)
		aTag, ok2 := rec.IntArg(5)
		if comm == "" || !ok1 || !ok2 {
			malformed("bad arguments")
			return
		}
		key := p2pKey{comm: comm, src: int(aSrc), dst: rank, tag: int(aTag)}
		out.recvs[key] = append(out.recvs[key], recvEntry{
			init: ref, completion: ref, src: int(aSrc), tag: int(aTag), resolved: true,
		})

	case "MPI_Irecv":
		comm, src, tag, ok := commPeerTag(rec)
		req := rec.Arg(3)
		if !ok || req == "" {
			malformed("bad arguments")
			return
		}
		pending[req] = &pendingReq{fn: rec.Func, init: ref, comm: comm, peer: src, tag: tag}

	case "MPI_Wait":
		// [req, src, tag]
		src, _ := rec.IntArg(1)
		tag, _ := rec.IntArg(2)
		sc.complete(rec.Arg(0), ref, int(src), int(tag))

	case "MPI_Waitall", "MPI_Testall":
		n, ok := rec.IntArg(0)
		if !ok || n < 0 || n > int64(len(rec.Args)) {
			malformed("bad count")
			return
		}
		statusBase := 1 + int(n)
		if rec.Func == "MPI_Testall" {
			if rec.Arg(statusBase) != "1" {
				return // flag=0: nothing completed
			}
			statusBase++
		}
		for k := 0; k < int(n); k++ {
			src, _ := rec.IntArg(statusBase + 2*k)
			tag, _ := rec.IntArg(statusBase + 2*k + 1)
			sc.complete(rec.Arg(1+k), ref, int(src), int(tag))
		}

	case "MPI_Test":
		// [req, flag, src, tag]
		if rec.Arg(1) != "1" {
			return
		}
		src, _ := rec.IntArg(2)
		tag, _ := rec.IntArg(3)
		sc.complete(rec.Arg(0), ref, int(src), int(tag))

	case "MPI_Waitany":
		// [n, reqs..., idx, src, tag]
		n, ok := rec.IntArg(0)
		if !ok || n < 0 || n > int64(len(rec.Args)) {
			malformed("bad count")
			return
		}
		idx, okI := rec.IntArg(1 + int(n))
		if !okI || idx < 0 || idx >= n {
			malformed("bad completion index")
			return
		}
		src, _ := rec.IntArg(1 + int(n) + 1)
		tag, _ := rec.IntArg(1 + int(n) + 2)
		sc.complete(rec.Arg(1+int(idx)), ref, int(src), int(tag))

	case "MPI_Waitsome", "MPI_Testsome":
		// [n, reqs..., outcount, indices..., (src,tag)...]
		n, ok := rec.IntArg(0)
		if !ok || n < 0 || n > int64(len(rec.Args)) {
			malformed("bad count")
			return
		}
		base := 1 + int(n)
		outc, okC := rec.IntArg(base)
		if !okC || outc < 0 || outc > n {
			malformed("bad outcount")
			return
		}
		for k := 0; k < int(outc); k++ {
			idx, okI := rec.IntArg(base + 1 + k)
			if !okI || idx < 0 || idx >= n {
				malformed("bad completion index")
				continue
			}
			src, _ := rec.IntArg(base + 1 + int(outc) + 2*k)
			tag, _ := rec.IntArg(base + 1 + int(outc) + 2*k + 1)
			sc.complete(rec.Arg(1+int(idx)), ref, int(src), int(tag))
		}

	case "MPI_Comm_dup":
		// [parent, new, members]
		sc.register(rec, ref, rec.Arg(1), rec.Arg(2))
		sc.addColl(rec.Arg(0), collEntry{fn: rec.Func, init: ref, completion: ref, rootArg: -1})

	case "MPI_Comm_split":
		// [parent, color, key, new, members]
		sc.register(rec, ref, rec.Arg(3), rec.Arg(4))
		sc.addColl(rec.Arg(0), collEntry{fn: rec.Func, init: ref, completion: ref, rootArg: -1})

	case "MPI_Ibarrier", "MPI_Iallreduce":
		// [comm, (op,) req]
		comm := rec.Arg(0)
		req := rec.Arg(len(rec.Args) - 1)
		if comm == "" || req == "" {
			malformed("bad arguments")
			return
		}
		idx := sc.addColl(comm, collEntry{fn: rec.Func, init: ref, completion: ref, rootArg: -1})
		pending[req] = &pendingReq{fn: rec.Func, init: ref, comm: comm, collGID: comm, collIdx: idx}

	default:
		if _, isColl := collectiveClass(rec.Func); !isColl {
			return
		}
		root := -1
		if scatterLike[rec.Func] || gatherLike[rec.Func] {
			if v, ok := rec.IntArg(1); ok {
				root = int(v)
			}
		}
		comm := rec.Arg(0)
		if rec.Func == "MPI_File_close" || rec.Func == "MPI_File_sync" ||
			rec.Func == "MPI_File_set_view" || rec.Func == "MPI_File_set_size" ||
			strings.HasPrefix(rec.Func, "MPI_File_read") || strings.HasPrefix(rec.Func, "MPI_File_write") {
			// MPI-IO collectives carry an fh, not a comm; they are
			// matched on the communicator of the enclosing open —
			// recovered from the open-file table.
			comm = ""
		}
		if rec.Func == "MPI_File_open" {
			comm = rec.Arg(0)
			// Record the open before resolving, so an open with an
			// empty comm resolves through itself like the backward
			// scan did.
			sc.openByFd[rec.Arg(3)] = rec.Arg(0)
			sc.lastOpen = rec.Arg(0)
			sc.anyOpen = true
		}
		sc.addColl(sc.fileComm(rec, comm), collEntry{fn: rec.Func, init: ref, completion: ref, rootArg: root})
	}
}

// fileComm resolves the communicator for MPI-IO collective records: the comm
// of the most recent MPI_File_open on this rank. The open-file table is the
// forward-tracked equivalent of scanning backwards for the nearest preceding
// open — the most recent open with this fh is exactly the nearest preceding
// one. (A single open file per rank at a time covers this simulation's
// programs; the fh→comm table also handles interleaved opens on different
// communicators.)
func (sc *rankScanner) fileComm(rec *trace.Record, explicit string) string {
	if explicit != "" {
		return explicit
	}
	if comm, ok := sc.openByFd[rec.Arg(0)]; ok {
		return comm
	}
	// Fall back to the last open of any fd.
	if sc.anyOpen {
		return sc.lastOpen
	}
	return "comm-world"
}

// registerComm records the membership of a newly created communicator. A
// malformed creation record is reported, not silently dropped: later
// collectives on the unregistered communicator would otherwise surface as
// confusing mismatched/missing-collective problems with no hint that the
// creation itself was the bad record.
func registerComm(members map[string][]int, gid, list string) error {
	if gid == "" || list == "" {
		return fmt.Errorf("communicator creation missing group id or member list")
	}
	if _, ok := members[gid]; ok {
		return nil
	}
	parts := strings.Split(list, ",")
	ranks := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 {
			return fmt.Errorf("communicator %s member list %q: %q is not a rank", gid, list, p)
		}
		ranks = append(ranks, v)
	}
	members[gid] = ranks
	return nil
}

func worldRank(members map[string][]int, gid string, commRank int) (int, bool) {
	mem, ok := members[gid]
	if !ok || commRank < 0 || commRank >= len(mem) {
		return -1, false
	}
	return mem[commRank], true
}

func commRank(members map[string][]int, gid string, world int) (int, bool) {
	for i, w := range members[gid] {
		if w == world {
			return i, true
		}
	}
	return -1, false
}

func commPeerTag(rec *trace.Record) (comm string, peer, tag int, ok bool) {
	comm = rec.Arg(0)
	p, ok1 := rec.IntArg(1)
	t, ok2 := rec.IntArg(2)
	if comm == "" || !ok1 || !ok2 {
		return "", 0, 0, false
	}
	return comm, int(p), int(t), true
}
