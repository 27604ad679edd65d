package herad

import (
	"math"

	"ampsched/internal/core"
)

// General k-type HeRAD fill. The DP state generalizes from (j, b, l) to
// (j, r⃗) where r⃗ is the k-vector of remaining per-type core counts; the
// matrix row for the first j tasks holds one cell per point of the box
// Π_v [0, C_v], flattened by mixed-radix strides. The recurrence, the
// single-stage seeding (Algo 8), the tie-break (Algo 10) and the
// extraction (Algo 11) are the literal k-type generalizations of the
// specialized 2D fill in herad.go:
//
//   - The Algo 10 tie-break "swap big cores for little ones, or use fewer
//     of both" is exactly lexicographic ≤ on the usage vector
//     (acc_0, …, acc_{k-1}) — types earlier in the table are the more
//     precious ones — so the general rule is a lexicographic compare.
//   - The Algo 8 single-stage tie ("solve ties in favor of the little
//     cores") becomes "the highest type index wins ties".
//
// At k=2 both rules coincide case-by-case with the specialized code, and
// the candidate enumeration visits the same (split, type, count) triples
// in the same order, so the general fill emits byte-identical schedules —
// general_test.go asserts this, and it is what licenses keeping the fast
// path. Like the 2D fill, the general fill is serial; it prunes
// the reverse split loop with the same period-dominance test, applied
// in-loop only — the pruning counters may therefore differ from the fast
// path's, the schedules cannot.
//
// Memory is O(n · Π_v(C_v+1)) cells; the state box grows geometrically
// with k, which is acceptable for the small-k platforms this models.

// kcell is one entry of the general DP matrix.
type kcell struct {
	pbest float64                  // minimal maximum period for this subproblem
	acc   [core.MaxCoreTypes]int32 // accumulated cores of each type used
	prev  int32                    // flattened state of the predecessor subproblem
	start int32                    // 0-based index of the first task of the last stage
	v     core.CoreType
}

// kmatrix is the flattened (n+1)×states general DP matrix.
type kmatrix struct {
	cells  []kcell
	k      int                      // number of core types
	counts [core.MaxCoreTypes]int   // per-type capacity C_v
	stride [core.MaxCoreTypes]int32 // mixed-radix strides; stride[k-1] == 1
	states int32                    // Π_v (C_v+1)
	// eps/inv/sqInv/gamma mirror the 2D matrix's ε-fill constants
	// (herad.go): all exact identities at ε=0, so the exact fill's
	// comparisons are unchanged.
	eps, inv, sqInv, gamma float64
}

func newKMatrix(n int, r core.Resources, eps float64) *kmatrix {
	m := &kmatrix{k: r.NumTypes()}
	m.eps, m.inv, m.sqInv, m.gamma = eps, 1.0, 1.0, 0
	if eps > 0 {
		m.inv = 1 / (1 + eps)
		root := math.Sqrt(1 + eps)
		m.sqInv = 1 / root
		m.gamma = root - 1
	}
	states := int32(1)
	for v := m.k - 1; v >= 0; v-- {
		m.counts[v] = r.Count(core.CoreType(v))
		m.stride[v] = states
		states *= int32(m.counts[v] + 1)
	}
	m.states = states
	m.cells = make([]kcell, (n+1)*int(states))
	inf := math.Inf(1)
	for i := range m.cells {
		m.cells[i].pbest = inf
	}
	// Row 0 is the empty-prefix base case: P*(0, ·) = 0.
	for i := int32(0); i < states; i++ {
		m.cells[i].pbest = 0
	}
	return m
}

// resetRow restores row j to its pre-fill (+Inf) state, the k-type twin of
// the 2D matrix's resetRow (kSingleStageSolution never writes the no-core
// state 0 of a row, which must read as unschedulable after a refill).
func (m *kmatrix) resetRow(j int) {
	row := m.cells[int32(j)*m.states : int32(j+1)*m.states]
	inf := math.Inf(1)
	for i := range row {
		row[i] = kcell{pbest: inf}
	}
}

// resize adjusts the matrix to hold rows 0..n — the k-type twin of the 2D
// matrix's resize (grown rows must be resetRow-initialized before use).
func (m *kmatrix) resize(n int) {
	want := (n + 1) * int(m.states)
	if want <= cap(m.cells) {
		m.cells = m.cells[:want]
		return
	}
	grown := make([]kcell, want, want+want/2)
	copy(grown, m.cells)
	m.cells = grown
}

// at returns the cell of row j at flattened state s.
func (m *kmatrix) at(j int, s int32) *kcell {
	return &m.cells[int32(j)*m.states+s]
}

// vec decodes the flattened state s into the remaining-count vector rv.
func (m *kmatrix) vec(s int32, rv *[core.MaxCoreTypes]int32) {
	for v := 0; v < m.k; v++ {
		q := s / m.stride[v]
		rv[v] = q % int32(m.counts[v]+1)
	}
}

// scheduleRawGeneral is scheduleRaw for an arbitrary number of core types.
// The guards (non-empty chain, positive non-negative resources, matching
// type tables) already ran in scheduleRaw.
func scheduleRawGeneral(c *core.Chain, r core.Resources, o Options) core.Solution {
	om := o.Metrics
	n := c.Len()
	dp, exit := om.Trace.Enter("dp_pass")
	dp.Int("tasks", n).Str("resources", r.String())
	m := newKMatrix(n, r, o.epsilon())
	kFillRows(m, c, 1, n, om)
	exit()
	return kExtractSolution(m, c, n)
}

// kFillRows computes rows from..to in ascending row order — the k-type
// twin of fillRows (always serial). Rows < from are read, never written.
func kFillRows(m *kmatrix, c *core.Chain, from, to int, om Metrics) {
	for e := from; e <= to; e++ {
		kSingleStageSolution(m, c, e)
		if e >= 2 {
			kFillRow(m, c, e, om)
		}
	}
}

// kSingleStageSolution implements Algo 8 for k types: every state r⃗ of row
// t is seeded with the best single stage that spends all r⃗_v cores of one
// type v, ties going to the highest type index (the k-type reading of
// "solve ties in favor of the little cores"). States with no cores keep
// their +Inf initialization.
func kSingleStageSolution(m *kmatrix, c *core.Chain, t int) {
	rep := c.IsRep(0, t-1)
	var rv [core.MaxCoreTypes]int32
	for s := int32(0); s < m.states; s++ {
		m.vec(s, &rv)
		dst := m.at(t, s)
		seeded := false
		for v := 0; v < m.k; v++ {
			rc := int(rv[v])
			if rc < 1 {
				continue
			}
			w := c.Weight(0, t-1, rc, core.CoreType(v))
			if seeded && w > dst.pbest {
				continue
			}
			var cand kcell
			cand.pbest = w
			if rep {
				cand.acc[v] = int32(rc)
			} else {
				cand.acc[v] = 1
			}
			cand.v = core.CoreType(v)
			cand.start = 0
			cand.prev = 0
			*dst = cand
			seeded = true
		}
	}
}

// kFillRow recomputes every state of row j in ascending flattened-state
// order, which is the lexicographic scan of the remaining-count vectors —
// the k-type generalization of the (ub, ul) row scan. Each cell only reads
// earlier rows and same-row states with one core less, all of which
// precede it in the scan.
func kFillRow(m *kmatrix, c *core.Chain, j int, om Metrics) {
	for s := int32(1); s < m.states; s++ {
		kRecomputeCell(m, c, j, s, om)
	}
}

// kRecomputeCell implements Algo 9 for k types: it computes P*(j, r⃗) by
// comparing the single-stage seed, the k neighbor cells with one less core
// of each type, and every split point i / core count u for every core type
// (Eq. 4 generalized). The reverse i loop is cut by the same
// period-dominance test as the 2D fill — once even the widest stage of
// every type exceeds the current best period, no smaller i can win.
func kRecomputeCell(m *kmatrix, c *core.Chain, j int, s int32, om Metrics) {
	om.DPCells.Inc()
	candidates := 0
	var rv [core.MaxCoreTypes]int32
	m.vec(s, &rv)
	cur := *m.at(j, s) // seed from kSingleStageSolution
	// Neighbor cells, highest type first — the order the 2D fill uses
	// ((b, l-1) before (b-1, l)).
	for v := m.k - 1; v >= 0; v-- {
		if rv[v] > 0 {
			kCompareCells(&cur, m.at(j, s-m.stride[v]), m.k)
		}
	}
	var w [core.MaxCoreTypes]float64
	pruned := false
	for i := j; i > 0; i-- {
		// The candidate stage holds tasks [i-1, j-1] (0-based); its
		// predecessor subproblem is row i-1. The ε fill relaxes the
		// dominance threshold to cur.pbest/(1+ε), exactly like the 2D
		// fill (m.inv is 1.0 at ε=0).
		rep := c.IsRep(i-1, j-1)
		thr := cur.pbest * m.inv
		dominatedAll := true
		for v := 0; v < m.k; v++ {
			w[v] = c.SumW(i-1, j-1, core.CoreType(v))
			if stageWeight(w[v], rep, int(rv[v])) <= thr {
				dominatedAll = false
			}
		}
		if dominatedAll {
			pruned = true
			break
		}
		for v := 0; v < m.k; v++ {
			maxU := int(rv[v])
			if !rep && maxU > 1 {
				maxU = 1 // sequential stages cannot benefit from extra cores
			}
			uStart := 1
			if m.eps > 0 {
				uStart = uFloor(w[v], cur.pbest*m.sqInv) // see the 2D fill's uFloor
			}
			for u := uStart; u <= maxU; u++ {
				candidates++
				prevState := s - int32(u)*m.stride[v]
				prev := m.at(i-1, prevState)
				p := w[v]
				if rep {
					p = w[v] / float64(u)
				}
				if prev.pbest > p {
					p = prev.pbest
				}
				cand := kcell{
					pbest: p,
					acc:   prev.acc,
					prev:  prevState,
					start: int32(i - 1),
					v:     core.CoreType(v),
				}
				if rep {
					cand.acc[v] += int32(u)
				} else {
					cand.acc[v]++
				}
				kCompareCells(&cur, &cand, m.k)
				if m.eps > 0 {
					u = gridNext(u, m.gamma) - 1 // loop's u++ lands on the grid point
				}
			}
		}
		if m.eps > 0 && i > 1 {
			// Geometric split grid — the k-type twin of the 2D fill's
			// skipSplit (the loop's i-- lands on the returned probe).
			i = kSkipSplit(m, c, j, i, &w) + 1
		}
	}
	if pruned {
		om.DPPruned.Inc()
		if om.Trace.Enabled() {
			om.Trace.Event("dp_prune").Int("tasks", j).Int("state", int(s))
		}
	}
	om.DPCandidates.Add(int64(candidates))
	if om.Trace.Enabled() && !math.IsInf(cur.pbest, 1) {
		om.Trace.Event("dp_cell").Int("tasks", j).Int("state", int(s)).
			F64("period", cur.pbest).Int("stage_start", int(cur.start)).
			Str("type", cur.v.String()).Int("candidates", candidates)
	}
	*m.at(j, s) = cur
}

// kSkipSplit is skipSplit for k types: the smallest split i' < i whose
// stage keeps every type's weight within the √(1+ε) grid factor of probe
// i's weights w, clamped up to the last still-replicable split when probe
// i's stage is replicable. Called with i ≥ 2 (split 1 is the last the
// loop visits).
func kSkipSplit(m *kmatrix, c *core.Chain, j, i int, w *[core.MaxCoreTypes]float64) int {
	grid := 1 + m.gamma
	within := func(x int) bool {
		for v := 0; v < m.k; v++ {
			if c.SumW(x-1, j-1, core.CoreType(v)) > w[v]*grid {
				return false
			}
		}
		return true
	}
	if !within(i - 1) {
		return i - 1
	}
	// Walk short skips linearly before bisecting, as in skipSplit: at
	// small ε the skip rarely outruns a few prefix-sum probes.
	lo, hi := 1, i-1 // within(hi) holds; the smallest within is in [lo, hi]
	for s := 0; s < shortWalk && hi > lo && within(hi-1); s++ {
		hi--
	}
	if hi > lo && within(hi-1) { // long skip: binary-search the rest
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if within(mid) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
	}
	lo = hi
	if c.IsRep(i-1, j-1) && !c.IsRep(lo-1, j-1) {
		rlo, rhi := lo+1, i // IsRep(i-1, j-1) holds; the flip is in [rlo, rhi]
		for rlo < rhi {
			mid := int(uint(rlo+rhi) >> 1)
			if c.IsRep(mid-1, j-1) {
				rhi = mid
			} else {
				rlo = mid + 1
			}
		}
		if rlo >= i {
			return i - 1 // every split below i is sequential: no safe skip
		}
		lo = rlo
	}
	return lo
}

// kCompareCells implements Algo 10 for k types: cand replaces cur when it
// has a strictly smaller period or, at equal periods, when its usage
// vector is lexicographically ≤ cur's. At k=2 the lexicographic rule is
// exactly the paper's "(accL↑ ∧ accB↓) ∨ (accL≤ ∧ accB≤)" case split.
func kCompareCells(cur, cand *kcell, k int) {
	if cur.pbest > cand.pbest {
		*cur = *cand
		return
	}
	if cur.pbest != cand.pbest {
		return
	}
	for v := 0; v < k; v++ {
		if cand.acc[v] != cur.acc[v] {
			if cand.acc[v] < cur.acc[v] {
				*cur = *cand
			}
			return
		}
	}
	*cur = *cand // identical usage: the later candidate wins, as in 2D
}

// kExtractSolution implements Algo 11 for k types, walking the matrix
// backwards from the full problem at the full-capacity state.
func kExtractSolution(m *kmatrix, c *core.Chain, n int) core.Solution {
	e, s := n, m.states-1 // full capacity flattens to the last state
	var sol core.Solution
	for e >= 1 {
		cl := m.at(e, s)
		if math.IsInf(cl.pbest, 1) {
			return core.Solution{} // unschedulable (no cores)
		}
		st := int(cl.start)
		used := cl.acc
		if st >= 1 {
			prev := m.at(st, cl.prev)
			for v := 0; v < m.k; v++ {
				used[v] -= prev.acc[v]
			}
		}
		sol = sol.Prepend(core.Stage{
			Start: st, End: e - 1, Cores: int(used[cl.v]), Type: cl.v,
		})
		e, s = st, cl.prev
	}
	return sol
}
