package subiso

import (
	"sort"

	"gcplus/internal/graph"
)

// legacyContains dispatches to the pre-compilation per-call
// implementations — the baseline the compiled Matcher engine is
// property-tested and benchmarked against. Unknown algorithms fall back
// to their own Contains.
func legacyContains(algo Algorithm, pattern, target *graph.Graph) bool {
	switch a := algo.(type) {
	case VF2:
		return legacyVF2Contains(pattern, target)
	case VF2Plus:
		return legacyVF2PlusContains(pattern, target)
	case GraphQL:
		return legacyGQLContains(a, pattern, target)
	case Brute:
		return legacyBruteContains(pattern, target)
	}
	return algo.Contains(pattern, target)
}

// legacyBruteContains is the original per-call implementation, kept as an
// independent oracle for the compiled engine's property tests.
func legacyBruteContains(pattern, target *graph.Graph) bool {
	np, nt := pattern.NumVertices(), target.NumVertices()
	if np == 0 {
		return true
	}
	if np > nt {
		return false
	}
	core := make([]int, np)
	for i := range core {
		core[i] = -1
	}
	used := make([]bool, nt)
	var rec func(u int) bool
	rec = func(u int) bool {
		if u == np {
			return true
		}
		for v := 0; v < nt; v++ {
			if used[v] || pattern.Label(u) != target.Label(v) {
				continue
			}
			ok := true
			for _, w := range pattern.Neighbors(u) {
				if m := core[w]; m >= 0 && !target.HasEdge(m, v) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			core[u] = v
			used[v] = true
			if rec(u + 1) {
				return true
			}
			core[u] = -1
			used[v] = false
		}
		return false
	}
	return rec(0)
}

// legacyVF2Contains is the original per-call implementation, kept as an
// independent reference for the compiled engine's property tests and as
// the BenchmarkVerifyLegacy baseline.
func legacyVF2Contains(pattern, target *graph.Graph) bool {
	if pattern.NumVertices() == 0 {
		return true
	}
	if quickReject(pattern, target) {
		return false
	}
	s := newVF2State(pattern, target, connectedOrder(pattern, func(a, b int) bool { return a < b }))
	return s.match(0)
}

// legacyVF2PlusContains is the original per-call implementation, kept as
// an independent reference for the compiled engine's property tests and
// as the BenchmarkVerifyLegacy baseline.
func legacyVF2PlusContains(pattern, target *graph.Graph) bool {
	if pattern.NumVertices() == 0 {
		return true
	}
	if quickReject(pattern, target) {
		return false
	}
	labelFreq := target.LabelCounts()
	better := func(a, b int) bool {
		fa, fb := labelFreq[pattern.Label(a)], labelFreq[pattern.Label(b)]
		if fa != fb {
			return fa < fb // rarer label first
		}
		if pattern.Degree(a) != pattern.Degree(b) {
			return pattern.Degree(a) > pattern.Degree(b) // higher degree first
		}
		return a < b
	}
	order := connectedOrder(pattern, better)
	s := newVF2State(pattern, target, order)

	// Precompute pattern-side neighbour label requirements and the
	// target-side neighbour label counts once per call; feasible() then
	// adds the O(labels) containment check through the nlcFeasible hook.
	req := make([]map[graph.Label]int, pattern.NumVertices())
	for v := range req {
		m := make(map[graph.Label]int, 4)
		for _, w := range pattern.Neighbors(v) {
			m[pattern.Label(int(w))]++
		}
		req[v] = m
	}
	have := make([]map[graph.Label]int, target.NumVertices())
	for v := range have {
		m := make(map[graph.Label]int, 4)
		for _, w := range target.Neighbors(v) {
			m[target.Label(int(w))]++
		}
		have[v] = m
	}
	return s.matchWithNLC(0, req, have)
}

// matchWithNLC is vf2State.match with VF2+'s neighbourhood-label-count
// check and 1-look-ahead cut layered onto feasibility.
func (s *vf2State) matchWithNLC(d int, req, have []map[graph.Label]int) bool {
	if d == len(s.order) {
		return true
	}
	pv := s.order[d]
	try := func(tv int) bool {
		if !s.feasible(pv, tv) || !s.lookahead(pv, tv) {
			return false
		}
		for l, c := range req[pv] {
			if have[tv][l] < c {
				return false
			}
		}
		s.core[pv] = tv
		s.used[tv] = true
		ok := s.matchWithNLC(d+1, req, have)
		s.core[pv] = -1
		s.used[tv] = false
		return ok
	}
	if a := s.anchor[d]; a >= 0 {
		tAnchor := s.core[s.order[a]]
		for _, tv := range s.t.Neighbors(tAnchor) {
			if try(int(tv)) {
				return true
			}
		}
		return false
	}
	for tv := 0; tv < s.t.NumVertices(); tv++ {
		if try(tv) {
			return true
		}
	}
	return false
}

// lookahead is the monomorphism-safe direction of the 1-look-ahead: the
// unmapped neighbours of pv must fit injectively into the unused
// neighbours of tv.
func (s *vf2State) lookahead(pv, tv int) bool {
	pFree := 0
	for _, pn := range s.p.Neighbors(pv) {
		if s.core[pn] < 0 {
			pFree++
		}
	}
	tFree := 0
	for _, tn := range s.t.Neighbors(tv) {
		if !s.used[tn] {
			tFree++
		}
	}
	return pFree <= tFree
}

// legacyGQLContains is the original per-call implementation, kept as an
// independent reference for the compiled engine's property tests and as
// the BenchmarkVerifyLegacy baseline.
func legacyGQLContains(a GraphQL, pattern, target *graph.Graph) bool {
	if pattern.NumVertices() == 0 {
		return true
	}
	if quickReject(pattern, target) {
		return false
	}
	np, nt := pattern.NumVertices(), target.NumVertices()

	// Stage 1: local pruning.
	cand := make([][]int32, np) // sorted candidate lists
	inCand := make([][]bool, np)
	profiles := make([][]graph.Label, nt)
	for u := 0; u < np; u++ {
		pu := neighborProfile(pattern, u)
		inCand[u] = make([]bool, nt)
		for v := 0; v < nt; v++ {
			if pattern.Label(u) != target.Label(v) || pattern.Degree(u) > target.Degree(v) {
				continue
			}
			if profiles[v] == nil {
				profiles[v] = neighborProfile(target, v)
			}
			if !profileContains(pu, profiles[v]) {
				continue
			}
			cand[u] = append(cand[u], int32(v))
			inCand[u][v] = true
		}
		if len(cand[u]) == 0 {
			return false
		}
	}

	// Stage 2: global refinement via bipartite matching.
	levels := a.RefineLevels
	if levels <= 0 {
		levels = DefaultRefineLevels
	}
	match := newBipartiteMatcher(nt)
	for level := 0; level < levels; level++ {
		changed := false
		for u := 0; u < np; u++ {
			pn := pattern.Neighbors(u)
			if len(pn) == 0 {
				continue
			}
			kept := cand[u][:0]
			for _, v := range cand[u] {
				if match.semiPerfect(pn, target.Neighbors(int(v)), inCand) {
					kept = append(kept, v)
				} else {
					inCand[u][v] = false
					changed = true
				}
			}
			cand[u] = kept
			if len(cand[u]) == 0 {
				return false
			}
		}
		if !changed {
			break
		}
	}

	// Stage 3: search-order optimization + DFS.
	order := gqlOrder(pattern, cand)
	s := &gqlState{
		p:      pattern,
		t:      target,
		order:  order,
		anchor: anchorFor(pattern, order),
		cand:   cand,
		inCand: inCand,
		core:   make([]int, np),
		used:   make([]bool, nt),
	}
	for i := range s.core {
		s.core[i] = -1
	}
	return s.search(0)
}

// gqlOrder picks the next vertex (preferring ones adjacent to the already
// ordered set) with the smallest candidate list.
func gqlOrder(p *graph.Graph, cand [][]int32) []int {
	n := p.NumVertices()
	order := make([]int, 0, n)
	done := make([]bool, n)
	adjacent := make([]bool, n)
	for len(order) < n {
		best, bestAdj := -1, false
		for v := 0; v < n; v++ {
			if done[v] {
				continue
			}
			switch {
			case best == -1,
				adjacent[v] && !bestAdj,
				adjacent[v] == bestAdj && len(cand[v]) < len(cand[best]),
				adjacent[v] == bestAdj && len(cand[v]) == len(cand[best]) && p.Degree(v) > p.Degree(best):
				best, bestAdj = v, adjacent[v]
			}
		}
		done[best] = true
		order = append(order, best)
		for _, w := range p.Neighbors(best) {
			adjacent[w] = true
		}
	}
	return order
}

type gqlState struct {
	p, t   *graph.Graph
	order  []int
	anchor []int
	cand   [][]int32
	inCand [][]bool
	core   []int
	used   []bool
}

func (s *gqlState) search(d int) bool {
	if d == len(s.order) {
		return true
	}
	pv := s.order[d]
	try := func(tv int) bool {
		if s.used[tv] || !s.inCand[pv][tv] {
			return false
		}
		for _, pn := range s.p.Neighbors(pv) {
			if m := s.core[pn]; m >= 0 && !s.t.HasEdge(m, tv) {
				return false
			}
		}
		s.core[pv] = tv
		s.used[tv] = true
		ok := s.search(d + 1)
		s.core[pv] = -1
		s.used[tv] = false
		return ok
	}
	if a := s.anchor[d]; a >= 0 {
		tAnchor := s.core[s.order[a]]
		for _, tv := range s.t.Neighbors(tAnchor) {
			if try(int(tv)) {
				return true
			}
		}
		return false
	}
	for _, tv := range s.cand[pv] {
		if try(int(tv)) {
			return true
		}
	}
	return false
}

func newBipartiteMatcher(targetVertices int) *bipartiteMatcher {
	m := &bipartiteMatcher{
		matchR:  make([]int, targetVertices),
		matchU:  make([]int, targetVertices),
		visited: make([]int, targetVertices),
	}
	for i := range m.matchR {
		m.matchR[i] = -1
	}
	return m
}

// neighborProfile returns, for vertex v of g, the multiset of its
// neighbours' labels as a sorted slice (for profile containment checks).
func neighborProfile(g *graph.Graph, v int) []graph.Label {
	ns := g.Neighbors(v)
	out := make([]graph.Label, len(ns))
	for i, w := range ns {
		out[i] = g.Label(int(w))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
