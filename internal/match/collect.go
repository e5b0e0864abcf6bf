package match

import (
	"cmp"
	"fmt"
	"slices"

	"verifyio/internal/trace"
)

// matchCollectives pairs the k-th collective call on each communicator
// across all members and emits synchronization edges.
func (m *matcher) matchCollectives() {
	gids := make([]string, 0, len(m.colls))
	for gid := range m.colls {
		gids = append(gids, gid)
	}
	slices.Sort(gids)

	for _, gid := range gids {
		byRank := m.colls[gid]
		members, ok := m.members[gid]
		if !ok {
			// Walk the participating ranks in order: map iteration order
			// must not leak into the refs.
			var refs []trace.Ref
			ranks := make([]int, 0, len(byRank))
			for r := range byRank {
				ranks = append(ranks, r)
			}
			slices.Sort(ranks)
			for _, r := range ranks {
				if entries := byRank[r]; len(entries) > 0 {
					refs = append(refs, entries[0].init)
				}
			}
			m.problem(MissingCollective,
				fmt.Sprintf("collective calls on unknown communicator %s", gid), refs...)
			continue
		}
		maxLen := 0
		for _, rank := range members {
			if n := len(byRank[rank]); n > maxLen {
				maxLen = n
			}
		}
		// Ranks that participate in fewer slots than their peers are
		// reported once each.
		for _, rank := range members {
			if n := len(byRank[rank]); n < maxLen {
				m.problem(MissingCollective,
					fmt.Sprintf("rank %d made %d collective calls on %s; peers made %d",
						rank, n, gid, maxLen))
			}
		}
		full := maxLen
		for _, rank := range members {
			if n := len(byRank[rank]); n < full {
				full = n
			}
		}
		for slot := 0; slot < full; slot++ {
			entries := make(map[int]*collEntry, len(members)) // world rank -> entry
			name := ""
			sameName := true
			root := -1
			sameRoot := true
			for _, rank := range members {
				e := &byRank[rank][slot]
				entries[rank] = e
				if name == "" {
					name = e.fn
					root = e.rootArg
				} else {
					if e.fn != name {
						sameName = false
					}
					if e.rootArg != root {
						sameRoot = false
					}
				}
			}
			if !sameName || !sameRoot {
				var refs []trace.Ref
				detail := fmt.Sprintf("collective slot %d on %s mixes calls:", slot, gid)
				for _, rank := range members {
					e := entries[rank]
					refs = append(refs, e.init)
					detail += fmt.Sprintf(" rank%d=%s", rank, e.fn)
				}
				m.problem(MismatchedCollective, detail, refs...)
				continue
			}
			m.res.Collectives++
			m.collectiveEdges(name, members, root, entries)
		}
	}
}

// collectiveEdges emits the synchronization edges for one matched slot.
func (m *matcher) collectiveEdges(name string, members []int, root int, entries map[int]*collEntry) {
	switch {
	case barrierLike[name]:
		// pred(call_i) → completion_j for all i ≠ j: everything before
		// the collective on any member happens-before everything after
		// it on every member, without creating call_i ↔ call_j cycles.
		for _, i := range members {
			ei := entries[i]
			if ei.init.Seq == 0 {
				continue // nothing precedes the call on this rank
			}
			pred := trace.Ref{Rank: ei.init.Rank, Seq: ei.init.Seq - 1}
			for _, j := range members {
				if i == j {
					continue
				}
				m.res.Edges = append(m.res.Edges, Edge{From: pred, To: entries[j].completion})
			}
		}
	case scatterLike[name]:
		rootWorld, ok := worldOf(members, root)
		if !ok {
			return
		}
		er := entries[rootWorld]
		for _, j := range members {
			if j == rootWorld {
				continue
			}
			m.res.Edges = append(m.res.Edges, Edge{From: er.init, To: entries[j].completion})
		}
	case gatherLike[name]:
		rootWorld, ok := worldOf(members, root)
		if !ok {
			return
		}
		er := entries[rootWorld]
		for _, j := range members {
			if j == rootWorld {
				continue
			}
			m.res.Edges = append(m.res.Edges, Edge{From: entries[j].init, To: er.completion})
		}
	case prefixLike[name]:
		// Prefix reductions: rank i's completion depends on every lower
		// comm rank's contribution (and on nothing above it).
		for i := 1; i < len(members); i++ {
			for j := 0; j < i; j++ {
				m.res.Edges = append(m.res.Edges, Edge{
					From: entries[members[j]].init,
					To:   entries[members[i]].completion,
				})
			}
		}
	default:
		// MPI-IO collectives: matched (error detection) but not
		// synchronizing — the reason the sync-barrier-sync construct
		// exists.
	}
}

func worldOf(members []int, commRank int) (int, bool) {
	if commRank < 0 || commRank >= len(members) {
		return -1, false
	}
	return members[commRank], true
}

// matchP2P pairs sends and receives per (comm, src, dst, tag) bucket in FIFO
// order.
func (m *matcher) matchP2P() {
	keys := make([]p2pKey, 0, len(m.sends)+len(m.recvs))
	seen := map[p2pKey]bool{}
	for k := range m.sends {
		keys = append(keys, k)
		seen[k] = true
	}
	for k := range m.recvs {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(a, b p2pKey) int {
		if c := cmp.Compare(a.comm, b.comm); c != 0 {
			return c
		}
		if c := cmp.Compare(a.src, b.src); c != 0 {
			return c
		}
		if c := cmp.Compare(a.dst, b.dst); c != 0 {
			return c
		}
		return cmp.Compare(a.tag, b.tag)
	})

	for _, key := range keys {
		sends := m.sends[key]
		recvs := m.recvs[key]
		// Receives match in posting order (non-overtaking): sort by the
		// initiation record.
		slices.SortFunc(recvs, func(a, b recvEntry) int { return refCompare(a.init, b.init) })
		n := len(sends)
		if len(recvs) < n {
			n = len(recvs)
		}
		for k := 0; k < n; k++ {
			m.res.Edges = append(m.res.Edges, Edge{From: sends[k].init, To: recvs[k].completion})
			m.res.P2P++
		}
		for k := n; k < len(sends); k++ {
			m.problem(UnmatchedSend,
				fmt.Sprintf("send on %s to world rank %d tag %d has no matching receive", key.comm, key.dst, key.tag),
				sends[k].init)
		}
		for k := n; k < len(recvs); k++ {
			m.problem(UnmatchedRecv,
				fmt.Sprintf("receive on %s from comm rank %d tag %d has no matching send", key.comm, key.src, key.tag),
				recvs[k].init)
		}
	}
}

func (m *matcher) sortOutputs() {
	slices.SortFunc(m.res.Edges, func(a, b Edge) int {
		if c := refCompare(a.From, b.From); c != 0 {
			return c
		}
		return refCompare(a.To, b.To)
	})
	// A total order: the problems arrive in an order that depends on map
	// iteration, so ties must not be left to the sort.
	slices.SortFunc(m.res.Problems, func(a, b Problem) int {
		if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Detail, b.Detail); c != 0 {
			return c
		}
		return slices.CompareFunc(a.Refs, b.Refs, refCompare)
	})
}

// refCompare orders refs by rank, then program order — trace.Ref.Less as a
// three-way comparison for slices.SortFunc.
func refCompare(a, b trace.Ref) int {
	if c := cmp.Compare(a.Rank, b.Rank); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}
