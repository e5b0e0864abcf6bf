package match

import (
	"reflect"
	"testing"

	"verifyio/internal/trace"
)

// viewTrace is a hand-built malformed trace whose matching depends on which
// rank's communicator registration wins. Rank 0 registers g with members
// "0,2"; rank 2 registers the same gid with "2,0,1" and then sends on it, so
// the send's destination and source resolve through rank 0's list, not its
// own. Rank 2 also sends on a gid no rank registered and leaves an
// MPI_Isend dangling. Rank 1 never registers g, yet sends on it (resolved
// through rank 0's list), re-registers it with a malformed list (silently
// a no-op, since rank 0 already registered it), and reuses a pending
// MPI_Irecv request id for an MPI_Isend on g — so its MPI_Wait retires the
// send, not the receive.
func viewTrace() *trace.Trace {
	tr := trace.New(3)
	add := func(rank int, fn string, args ...string) {
		n := int64(len(tr.Ranks[rank]))
		tr.Append(trace.Record{Rank: rank, Func: fn, Layer: trace.LayerMPI,
			Args: args, Tick: 2*n + 1, Ret: 2*n + 2})
	}
	// Rank 0: register g = [0, 2], receive rank 2's send on g (comm rank
	// 1 in rank 0's list), and send to rank 1 on comm-world.
	add(0, "MPI_Comm_split", "comm-world", "0", "0", "g", "0,2")
	add(0, "MPI_Recv", "g", "1", "5", "4", "1", "5")
	add(0, "MPI_Send", "comm-world", "1", "9", "4")
	add(0, "MPI_Recv", "g", "-1", "6", "4", "-1", "6")

	// Rank 1: send on g before (and without) a valid registration, then a
	// malformed re-registration, then the request-id reuse.
	add(1, "MPI_Send", "g", "0", "6", "4")
	add(1, "MPI_Comm_dup", "comm-world", "g", "1,x")
	add(1, "MPI_Irecv", "comm-world", "0", "9", "q1")
	add(1, "MPI_Isend", "g", "1", "7", "4", "q1")
	add(1, "MPI_Wait", "q1", "0", "9")

	// Rank 2: conflicting registration of g, a send and a sendrecv on it,
	// a send on an unregistered gid, and a dangling isend.
	add(2, "MPI_Comm_dup", "comm-world", "g", "2,0,1")
	add(2, "MPI_Send", "g", "0", "5", "4")
	add(2, "MPI_Sendrecv", "g", "2", "8", "4", "0", "8", "4", "0", "8")
	add(2, "MPI_Send", "ghost", "0", "1", "4")
	add(2, "MPI_Isend", "comm-world", "0", "3", "4", "r2")
	return tr
}

// feedOrder drives a StreamMatcher with each rank's records split into
// single-record batches. Rank-major feeds every batch of one rank before
// moving to the next rank in the given order; otherwise the ranks take
// turns, one batch each.
func feedOrder(t *testing.T, tr *trace.Trace, order []int, rankMajor bool) *Result {
	t.Helper()
	sm := NewStreamMatcher(tr.NumRanks())
	next := make([]int, tr.NumRanks())
	feed := func(rank int) bool {
		if next[rank] >= len(tr.Ranks[rank]) {
			return false
		}
		sm.Feed(rank, tr.Ranks[rank][next[rank]:next[rank]+1])
		next[rank]++
		return true
	}
	if rankMajor {
		for _, rank := range order {
			for feed(rank) {
			}
		}
	} else {
		for fed := true; fed; {
			fed = false
			for _, rank := range order {
				fed = feed(rank) || fed
			}
		}
	}
	res, err := sm.Finish(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMatchOrderFreeCommViews pins the matcher on registrations that
// disagree across ranks: the lowest registering rank's member list wins
// (first registration in rank-major record order), at every worker count
// and in every feeding order.
func TestMatchOrderFreeCommViews(t *testing.T) {
	tr := viewTrace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	want, err := MatchOpts(tr, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// The pinned outcome itself.
	r := func(rank, seq int) trace.Ref { return trace.Ref{Rank: rank, Seq: seq} }
	if !hasEdge(want, r(2, 1), r(0, 1)) {
		t.Errorf("rank 2's send on g did not resolve through rank 0's member list: edges %v", want.Edges)
	}
	if !hasEdge(want, r(1, 0), r(0, 3)) {
		t.Errorf("rank 1's send on g before registering it did not resolve through rank 0's list: edges %v", want.Edges)
	}
	// The sendrecv's destination (comm rank 2) exists in rank 2's own list
	// but not in rank 0's; rank 1's isend retires request q1, orphaning
	// rank 0's send to the overwritten irecv.
	wantProblems := []Problem{
		{Kind: MismatchedCollective, Refs: []trace.Ref{r(0, 0), r(1, 1), r(2, 0)},
			Detail: "collective slot 0 on comm-world mixes calls: rank0=MPI_Comm_split rank1=MPI_Comm_dup rank2=MPI_Comm_dup"},
		{Kind: UnmatchedSend, Refs: []trace.Ref{r(2, 4)}, Detail: "send on comm-world to world rank 0 tag 3 has no matching receive"},
		{Kind: UnmatchedSend, Refs: []trace.Ref{r(0, 2)}, Detail: "send on comm-world to world rank 1 tag 9 has no matching receive"},
		{Kind: UnmatchedSend, Refs: []trace.Ref{r(1, 3)}, Detail: "send on g to world rank 2 tag 7 has no matching receive"},
		{Kind: DanglingRequest, Refs: []trace.Ref{r(2, 4)}, Detail: "MPI_Isend request r2 never completed by MPI_Wait*/MPI_Test*"},
		{Kind: MalformedRecord, Refs: []trace.Ref{r(2, 3)}, Detail: "MPI_Send: unknown communicator ghost"},
		{Kind: MalformedRecord, Refs: []trace.Ref{r(2, 2)}, Detail: "MPI_Sendrecv: unknown communicator g"},
	}
	if !reflect.DeepEqual(want.Problems, wantProblems) {
		t.Errorf("problems:\ngot  %+v\nwant %+v", want.Problems, wantProblems)
	}

	got4, err := MatchOpts(tr, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got4, want) {
		t.Errorf("workers=4 differs from workers=1\ngot:  %+v\nwant: %+v", got4, want)
	}
	for _, tc := range []struct {
		name      string
		order     []int
		rankMajor bool
	}{
		{"ascending", []int{0, 1, 2}, true},
		{"descending", []int{2, 1, 0}, true},
		{"interleaved", []int{1, 2, 0, 2}, false},
	} {
		if got := feedOrder(t, tr, tc.order, tc.rankMajor); !reflect.DeepEqual(got, want) {
			t.Errorf("%s feed differs from MatchOpts\ngot:  %+v\nwant: %+v", tc.name, got, want)
		}
	}
}
