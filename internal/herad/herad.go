// Package herad implements HeRAD (Heterogeneous Resource Allocation using
// Dynamic programming, Algos 7–11 of the paper): the optimal solution to
// the period-minimization problem for partially-replicable task chains on
// two types of resources, with the secondary objective of using as many
// little cores as necessary (and otherwise as few cores as possible).
//
// The DP computes P*(j, b, l) — the best period for the first j tasks with
// up to b big and l little cores — via the recurrence of Eq. 4, resolving
// period ties with CompareCells (Algo 10). Complexity is O(n²·b·l·(b+l))
// time and O(n·b·l) space; two published optimizations are implemented
// (single-core inner loop for sequential intervals, plus the stage-merge
// post-pass), along with a period-dominance pruning of the reverse stage
// loop that cannot alter either objective.
//
// The fill is one serial row scan: within row j, cell (j, b, l) depends
// only on rows < j and on the already-recomputed same-row neighbors
// (j, b−1, l) and (j, b, l−1). Each cell evaluates only the candidates that
// can still win or tie (DESIGN.md §4e): a candidate whose period is known to
// exceed the incumbent is never built, the replica-count loop stops once
// the predecessor alone loses, and the exact fill binary-searches where the
// reverse split loop can start. The cells, the decision journal and the
// herad.dp.* counters are those of the full candidate walk, which
// reference_test.go keeps as the oracle.
//
// Platforms with k≠2 core types are solved by the general k-type fill in
// general.go, whose DP state is indexed by the k-vector of remaining core
// counts. Two-type problems keep this file's specialized 2D fill unless
// Options.ForceGeneral routes them through the general fill (which
// provably emits the same schedules; see general.go).
package herad

import (
	"math"

	"ampsched/internal/core"
	"ampsched/internal/obs"
	"ampsched/internal/trace"
)

// Metrics holds HeRAD's instrumentation handles. The zero value is the
// disabled sink.
type Metrics struct {
	// DPCells counts recomputeCell invocations — the (j, b, l) cells the
	// Eq. 4 recursion actually evaluates (Algo 9).
	DPCells *obs.Counter
	// DPCandidates counts candidate (split point, core count, type)
	// solutions compared inside those cells.
	DPCandidates *obs.Counter
	// DPPruned counts the reverse stage loops cut short by the
	// period-dominance pruning.
	DPPruned *obs.Counter
	// MergedStages counts the stages removed by the replicable-stage
	// merge post-pass.
	MergedStages *obs.Counter
	// Trace is the decision-journal scope: the DP fill runs under a
	// "dp_pass" span with one "dp_cell" event per recomputed cell (the
	// committed split point, core type and period), "dp_prune" events for
	// the dominance cut-offs, and a "merge_pass" event for the post-pass.
	Trace *trace.Scope
}

// MetricsFrom resolves HeRAD's series in r (nil r disables).
func MetricsFrom(r *obs.Registry) Metrics {
	return Metrics{
		DPCells:      r.Counter("herad.dp.cells"),
		DPCandidates: r.Counter("herad.dp.candidates"),
		DPPruned:     r.Counter("herad.dp.pruned"),
		MergedStages: r.Counter("herad.merge.removed_stages"),
	}
}

// cell is one entry of the DP solution matrix S (Algo 7 lines 1–7).
type cell struct {
	pbest        float64 // minimal maximum period for this subproblem
	accB, accL   int32   // accumulated cores of each type used by the solution
	prevB, prevL int32   // resources available to the predecessor subproblem
	start        int32   // 0-based index of the first task of the last stage
	v            core.CoreType
}

// matrix is the flattened (n+1)×(b+1)×(l+1) DP matrix. Row j holds the
// subproblems covering the first j tasks.
type matrix struct {
	cells []cell
	b, l  int
	// ε-fill constants (all exact identities at ε=0, so the exact fill's
	// comparisons are bit-identical to the pre-ε code): eps is the ε of
	// the beam-pruned fill (0 = exact); inv = 1/(1+ε) scales the split
	// dominance threshold; sqInv = 1/√(1+ε) scales the per-candidate
	// replica floor; gamma = √(1+ε)−1 is the step of both geometric
	// candidate grids (split points and replica counts). The two grids
	// each round by at most √(1+ε), so their composition stays within the
	// (1+ε) budget — see DESIGN.md §4g.
	eps, inv, sqInv, gamma float64
}

func newMatrix(n, b, l int, eps float64) *matrix {
	m := &matrix{cells: make([]cell, (n+1)*(b+1)*(l+1)), b: b, l: l}
	m.setEpsilon(eps)
	inf := math.Inf(1)
	for i := range m.cells {
		m.cells[i].pbest = inf
	}
	// Row 0 is the empty-prefix base case: P*(0, ·, ·) = 0.
	for i := 0; i < (b+1)*(l+1); i++ {
		m.cells[i].pbest = 0
	}
	return m
}

func (m *matrix) setEpsilon(eps float64) {
	m.eps, m.inv, m.sqInv, m.gamma = eps, 1.0, 1.0, 0
	if eps > 0 {
		m.inv = 1 / (1 + eps)
		root := math.Sqrt(1 + eps)
		m.sqInv = 1 / root
		m.gamma = root - 1
	}
}

func (m *matrix) at(j, rb, rl int) *cell {
	return &m.cells[(j*(m.b+1)+rb)*(m.l+1)+rl]
}

// rowLen is the number of cells of one matrix row.
func (m *matrix) rowLen() int { return (m.b + 1) * (m.l + 1) }

// resetRow restores row j to its pre-fill state: every cell back to the
// +Inf initialization of newMatrix, so an incremental refill recomputes
// the row exactly as a from-scratch fill would (singleStageSolution never
// touches the no-core cell (j, 0, 0), which must read as unschedulable).
func (m *matrix) resetRow(j int) {
	row := m.cells[j*m.rowLen() : (j+1)*m.rowLen()]
	inf := math.Inf(1)
	for i := range row {
		row[i] = cell{pbest: inf}
	}
}

// resize adjusts the matrix to hold rows 0..n. Shrinking truncates,
// leaving every surviving row intact; growing keeps the existing rows and
// appends rows of arbitrary content, which the caller must resetRow
// before filling. Extra capacity is reserved so a run of Appends does not
// reallocate per edit.
func (m *matrix) resize(n int) {
	want := (n + 1) * m.rowLen()
	if want <= cap(m.cells) {
		m.cells = m.cells[:want]
		return
	}
	grown := make([]cell, want, want+want/2)
	copy(grown, m.cells)
	m.cells = grown
}

// Options carries the scheduling knobs of the DP. The zero value is the
// default configuration: exact fill, merged post-pass, disabled
// instrumentation.
type Options struct {
	// Raw skips the replicable-stage merge post-pass, exposing schedules
	// exactly as extracted from the DP matrix.
	Raw bool
	// ForceGeneral routes two-type problems through the general k-type DP
	// fill instead of the specialized 2D fill. The schedules are
	// identical (asserted by general_test.go); only the wall clock and the
	// pruning counters differ. Platforms with k≠2 always use the general
	// fill. Intended for tests and benchmarks of the specialization.
	ForceGeneral bool
	// Epsilon > 0 selects the ε-optimal beam-pruned fill: the reverse
	// split-point loop is cut once a candidate stage cannot beat the
	// incumbent period by more than the (1+ε) factor, and replica counts
	// are probed on a geometric grid instead of exhaustively. The emitted
	// schedule's period P satisfies P ≤ (1+ε)·P* (see DESIGN.md §4g; the
	// bound does not compound across stages because the DP objective is a
	// max, not a sum), at a fraction of the exact fill's candidate count.
	// Epsilon = 0 (and any negative or NaN value) is the exact fill,
	// bit-identical to the pre-ε implementation; the property tests in
	// epsilon_test.go pin both contracts.
	Epsilon float64
	// Metrics holds the instrumentation sinks (zero value disables).
	Metrics Metrics
}

// Schedule computes the optimal schedule of c on the resources r,
// including the replicable-stage merge post-pass. It returns the empty
// solution when no resources are available.
func Schedule(c *core.Chain, r core.Resources) core.Solution {
	return ScheduleOpts(c, r, Options{})
}

// ScheduleObs is Schedule reporting into om.
func ScheduleObs(c *core.Chain, r core.Resources, om Metrics) core.Solution {
	return ScheduleOpts(c, r, Options{Metrics: om})
}

// ScheduleRaw is Schedule without the stage-merge post-pass, exposing the
// schedules exactly as extracted from the DP matrix.
func ScheduleRaw(c *core.Chain, r core.Resources) core.Solution {
	return ScheduleOpts(c, r, Options{Raw: true})
}

// ScheduleRawObs is ScheduleRaw reporting into om.
func ScheduleRawObs(c *core.Chain, r core.Resources, om Metrics) core.Solution {
	return ScheduleOpts(c, r, Options{Raw: true, Metrics: om})
}

// ScheduleOpts computes the optimal schedule of c on r under o.
func ScheduleOpts(c *core.Chain, r core.Resources, o Options) core.Solution {
	return finishSolution(c, scheduleRaw(c, r, o), o)
}

// finishSolution applies the replicable-stage merge post-pass requested by
// o to an extracted solution (shared by ScheduleOpts and Planner).
func finishSolution(c *core.Chain, s core.Solution, o Options) core.Solution {
	if o.Raw {
		return s
	}
	om := o.Metrics
	merged := s.MergeReplicable(c)
	removed := len(s.Stages) - len(merged.Stages)
	if removed > 0 {
		om.MergedStages.Add(int64(removed))
	}
	if om.Trace.Enabled() && !s.IsEmpty() {
		om.Trace.Event("merge_pass").Int("removed_stages", removed).
			Int("stages", len(merged.Stages))
	}
	return merged
}

// epsilon normalizes Options.Epsilon: negative and NaN values mean the
// exact fill, exactly like the zero default.
func (o Options) epsilon() float64 {
	if o.Epsilon > 0 {
		return o.Epsilon
	}
	return 0
}

func scheduleRaw(c *core.Chain, r core.Resources, o Options) core.Solution {
	if c == nil || c.Len() == 0 || r.Total() <= 0 || !r.NonNegative() {
		return core.Solution{}
	}
	if c.NumTypes() != r.NumTypes() {
		return core.Solution{} // chain and platform disagree on the type table
	}
	if r.NumTypes() != 2 || o.ForceGeneral {
		return scheduleRawGeneral(c, r, o)
	}
	om := o.Metrics
	n, b, l := c.Len(), r.Count(core.Big), r.Count(core.Little)
	dp, exit := om.Trace.Enter("dp_pass")
	dp.Int("tasks", n).Int("big", b).Int("little", l)
	m := newMatrix(n, b, l, o.epsilon())
	fillRows(m, c, 1, n, om)
	exit()
	return extractSolution(m, c, n, b, l)
}

// fillRows computes rows from..to of the matrix in ascending row order:
// each row is seeded by singleStageSolution and, from row 2 on, completed
// by the Eq. 4 recurrence over its cells in (ub, ul) scan order — every
// cell reads only earlier rows and its same-row neighbors (j, ub−1, ul)
// and (j, ub, ul−1), both filled before it. Rows < from are read, never
// written, which is what lets the incremental Planner refill only the
// suffix a chain edit invalidates. The rows must be in their pre-fill
// (+Inf) state — fresh from newMatrix, or resetRow.
func fillRows(m *matrix, c *core.Chain, from, to int, om Metrics) {
	for j := from; j <= to; j++ {
		singleStageSolution(m, c, j)
		if j < 2 {
			continue
		}
		for ub := 0; ub <= m.b; ub++ {
			for ul := 0; ul <= m.l; ul++ {
				if ub != 0 || ul != 0 {
					recomputeCell(m, c, j, ub, ul, om)
				}
			}
		}
	}
}

// Period returns the optimal period of c on r without materializing the
// schedule (it still fills the DP matrix).
func Period(c *core.Chain, r core.Resources) float64 {
	s := ScheduleRaw(c, r)
	return s.Period(c)
}

// singleStageSolution implements Algo 8: it fills row t with the best
// solutions that place the first t tasks in a single stage, comparing
// increasing numbers of big cores against increasing numbers of little
// cores and solving ties in favor of the little ones.
func singleStageSolution(m *matrix, c *core.Chain, t int) {
	rep := c.IsRep(0, t-1)
	// Stages using little cores only (rb = 0 column).
	for rl := 1; rl <= m.l; rl++ {
		cl := m.at(t, 0, rl)
		cl.pbest = c.Weight(0, t-1, rl, core.Little)
		if rep {
			cl.accB, cl.accL = 0, int32(rl)
		} else {
			cl.accB, cl.accL = 0, 1
		}
		cl.v = core.Little
		cl.start = 0
		cl.prevB, cl.prevL = 0, 0
	}
	// m.at(t, 0, 0) keeps its +Inf initialization: no cores, no schedule.
	for rb := 1; rb <= m.b; rb++ {
		wb := c.Weight(0, t-1, rb, core.Big)
		ub := int32(1)
		if rep {
			ub = int32(rb)
		}
		for rl := 0; rl <= m.l; rl++ {
			dst := m.at(t, rb, rl)
			little := m.at(t, 0, rl)
			if wb < little.pbest {
				dst.pbest = wb
				dst.accB, dst.accL = ub, 0
				dst.v = core.Big
				dst.start = 0
				dst.prevB, dst.prevL = 0, 0
			} else {
				*dst = *little
			}
		}
	}
}

// stageWeight is core.Chain.Weight (Eq. 1) with the interval sum already
// in hand: w is SumW(s, e, v), rep is IsRep(s, e). Bit-identical to
// Weight — same operations in the same order — so hoisting the prefix-sum
// lookup out of the candidate loops cannot change a single cell.
func stageWeight(w float64, rep bool, r int) float64 {
	if r < 1 {
		return math.Inf(1)
	}
	if rep {
		return w / float64(r)
	}
	return w
}

// dominated reports whether every stage-[i-1, j-1] candidate is period-
// dominated at the threshold thr: even with all b big or all l little
// cores the stage weight exceeds thr. It is non-increasing in i — a longer
// interval only gains prefix-sum weight and can only lose replicability
// (dropping the divisor) — which makes the dominance cutoff binary-
// searchable. The exact fill passes thr = cur.pbest; the ε fill passes
// thr = cur.pbest/(1+ε), pruning splits that could not improve on the
// incumbent by more than the factor the ε bound already concedes.
func dominated(c *core.Chain, j, b, l, i int, thr float64) bool {
	rep := c.IsRep(i-1, j-1)
	return stageWeight(c.SumW(i-1, j-1, core.Big), rep, b) > thr &&
		stageWeight(c.SumW(i-1, j-1, core.Little), rep, l) > thr
}

// gridNext returns the replica count following u on the ε fill's geometric
// candidate grid: ⌊u·(1+ε)⌋ + 1. Consecutive grid points differ by a
// factor ≤ (1+ε), so for every exact count u* there is a probed count
// u ≤ u* with stage weight w/u ≤ (1+ε)·w/u* — the inequality the ε bound
// rests on. At ε=0 the grid degenerates to u+1, i.e. the exhaustive walk.
// shortWalk bounds the linear probe the ε fill's split-skip helpers try
// before resorting to a binary search: skips shorter than this are cheaper
// to walk than to bisect.
const shortWalk = 8

func gridNext(u int, eps float64) int {
	next := int(float64(u)*(1+eps)) + 1
	if next <= u {
		return u + 1
	}
	return next
}

// uFloor returns the smallest replica count whose stage period w/u does
// not exceed thr (⌈w/thr⌉, clamped below at 1) — the ε fill's
// per-candidate beam cut. The fill passes thr = cur.pbest/√(1+ε): a
// count under the floor, evaluated at the probed split OR at any split
// the probe covers (whose weight is at most a √(1+ε) grid step smaller),
// has true candidate period above cur.pbest/(1+ε) — it cannot beat the
// incumbent by more than the factor the ε bound already concedes. The u
// loop therefore starts at the floor and the geometric grid runs upward
// from it; every count skipped below the floor is ruled out against its
// true period, never against another rounded candidate, so the floor
// consumes no grid budget. For a sequential stage (weight w regardless
// of u) a floor > 1 exceeds maxU = 1 and skips the stage outright — the
// per-type form of the dominance cut.
func uFloor(w, thr float64) int {
	if !(w > thr) {
		return 1
	}
	u := int(w / thr)
	if float64(u)*thr < w {
		u++
	}
	if u < 1 {
		u = 1
	}
	return u
}

// skipSplit returns the split point the ε fill probes after i (the
// enclosing loop's i-- lands on it): the smallest i' in (iCut, i) whose
// stage [i'-1, j-1] keeps both type weights within the √(1+ε) grid
// factor of probe i's — every split skipped in between is then covered
// by the returned probe within one grid step, because interval weights
// only grow as the split moves left. When probe i's stage is replicable
// the result is clamped up to the last still-replicable split: a
// sequential covering stage cannot stand in for a replicated one (it
// lost the divisor), and clamping — probing earlier than the weight grid
// requires — only tightens the coverage. Both searches are O(log n) on
// the chain's monotone prefix structure, which is what makes a probe
// cheaper than the splits it skips.
func skipSplit(c *core.Chain, j, i, iCut int, limB, limL float64) int {
	within := func(x int) bool {
		return c.SumW(x-1, j-1, core.Big) <= limB &&
			c.SumW(x-1, j-1, core.Little) <= limL
	}
	if i-1 <= iCut || !within(i-1) {
		return i - 1
	}
	// Short skips are the common case at small ε (the grid factor shrinks
	// toward per-task weight granularity), and there a full binary search
	// costs more than the handful of cheap prefix-sum probes it replaces —
	// so walk linearly first and only fall back to the O(log n) search when
	// the skip turns out to be long.
	lo, hi := iCut+1, i-1 // within(hi) holds; the smallest within is in [lo, hi]
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

// recomputeCell implements Algo 9: it computes P*(j, b, l) by comparing
// the single-stage seed, the neighbor cells with one less core of either
// type, and every split point i / core count u for both core types
// (Eq. 4). The reverse i loop is pruned once even the widest replicated
// stage exceeds the current best period, and sequential intervals only try
// a single core.
//
// The dominance cutoff is located up front by an O(log n) binary search on
// the chain's monotone prefix sums (dominated is non-increasing in i), so
// the loop never visits split points the seed period already rules out.
// The in-loop check survives because cur.pbest can improve mid-loop and
// cut even earlier.
//
// Only candidates that can still win or tie are evaluated (DESIGN.md §4e):
// a candidate's period max(prev.pbest, w/u) is known before its cell is
// built, so a strictly worse one is never built or compared; the u loop
// stops once the predecessor alone exceeds the incumbent, because
// P*(i−1, ·) only grows as u takes cores away from it; and the exact fill
// starts the reverse split loop at predecessorWindow, past every split
// whose one-core predecessor already loses. Losing candidates never touch
// cur, so the cell, the prune count and the journal are those of the full
// walk. The candidate counter still counts the full walk's candidate set:
// the skipped candidates are added arithmetically.
func recomputeCell(m *matrix, c *core.Chain, j, b, l int, om Metrics) {
	om.DPCells.Inc()
	candidates := 0       // accumulated locally to keep the hot loops cheap
	cur := *m.at(j, b, l) // seed from singleStageSolution
	if l > 0 {
		compareCells(&cur, m.at(j, b, l-1))
	}
	if b > 0 {
		compareCells(&cur, m.at(j, b-1, l))
	}
	// iCut is the largest split point whose stage the seed period already
	// dominates (0 when none): the reverse loop stops above it. Any
	// in-loop cut at a larger i would also have stopped the former linear
	// walk there, so the candidate set is unchanged. The ε fill multiplies
	// the threshold by 1/(1+ε) — m.inv is exactly 1.0 at ε=0, so the exact
	// fill compares against cur.pbest bit-for-bit as before.
	iCut := 0
	if dominated(c, j, b, l, 1, cur.pbest*m.inv) {
		lo, hi := 1, j // invariant: dominated(lo); the cutoff is in [lo, hi]
		for lo < hi {
			mid := int(uint(lo+hi+1) >> 1)
			if dominated(c, j, b, l, mid, cur.pbest*m.inv) {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		iCut = lo
	}
	pruned := iCut >= 1
	start := j
	if m.eps == 0 {
		if start = predecessorWindow(m, j, b, l, cur.pbest); start < iCut {
			start = iCut
		}
		candidates += skippedSplitCandidates(c, j, b, l, start)
	}
	for i := start; i > iCut; i-- {
		// The candidate stage holds tasks [i-1, j-1] (0-based); its
		// predecessor subproblem is row i-1. i == 1 reproduces the
		// single-stage candidates with intermediate core counts.
		rep := c.IsRep(i-1, j-1)
		wB := c.SumW(i-1, j-1, core.Big)
		wL := c.SumW(i-1, j-1, core.Little)
		// Period-dominance pruning against the improving cur.pbest: stage
		// weight grows as i decreases, so once the lightest possible stage
		// (all cores of the cheaper type) exceeds the threshold, no
		// candidate at this or any smaller i can win (outright at ε=0, by
		// more than the conceded (1+ε) factor otherwise).
		thr := cur.pbest * m.inv
		if stageWeight(wB, rep, b) > thr && stageWeight(wL, rep, l) > thr {
			iCut = i
			pruned = true
			break
		}
		maxUB := b
		maxUL := l
		if !rep {
			// Sequential stages cannot benefit from extra cores.
			if maxUB > 1 {
				maxUB = 1
			}
			if maxUL > 1 {
				maxUL = 1
			}
		}
		uStartB, uStartL := 1, 1
		if m.eps > 0 {
			thrU := cur.pbest * m.sqInv
			uStartB, uStartL = uFloor(wB, thrU), uFloor(wL, thrU)
		}
		for u := uStartB; u <= maxUB; u++ {
			prev := m.at(i-1, b-u, l)
			if prev.pbest > cur.pbest {
				// P*(i−1, b−u, l) is non-increasing in b−u: every larger u
				// loses too.
				candidates += gridCount(u, maxUB, m.gamma)
				break
			}
			candidates++
			p := wB
			if rep {
				p = wB / float64(u)
			}
			if prev.pbest > p {
				p = prev.pbest
			}
			if p <= cur.pbest {
				cand := cell{
					pbest: p,
					accB:  prev.accB + 1, accL: prev.accL,
					prevB: int32(b - u), prevL: int32(l),
					start: int32(i - 1), v: core.Big,
				}
				if rep {
					cand.accB = prev.accB + int32(u)
				}
				compareCells(&cur, &cand)
			}
			if m.eps > 0 {
				u = gridNext(u, m.gamma) - 1 // loop's u++ lands on the grid point
			}
		}
		for u := uStartL; u <= maxUL; u++ {
			prev := m.at(i-1, b, l-u)
			if prev.pbest > cur.pbest {
				candidates += gridCount(u, maxUL, m.gamma)
				break
			}
			candidates++
			p := wL
			if rep {
				p = wL / float64(u)
			}
			if prev.pbest > p {
				p = prev.pbest
			}
			if p <= cur.pbest {
				cand := cell{
					pbest: p,
					accB:  prev.accB, accL: prev.accL + 1,
					prevB: int32(b), prevL: int32(l - u),
					start: int32(i - 1), v: core.Little,
				}
				if rep {
					cand.accL = prev.accL + int32(u)
				}
				compareCells(&cur, &cand)
			}
			if m.eps > 0 {
				u = gridNext(u, m.gamma) - 1
			}
		}
		if m.eps > 0 && i-1 > iCut {
			// Geometric split grid: jump straight to the next probe; the
			// loop's i-- lands on skipSplit's result.
			i = skipSplit(c, j, i, iCut, wB*(1+m.gamma), wL*(1+m.gamma)) + 1
		}
	}
	if pruned {
		om.DPPruned.Inc()
		if om.Trace.Enabled() {
			om.Trace.Event("dp_prune").Int("tasks", j).Int("big", b).Int("little", l).
				Int("cut_at_start", iCut-1)
		}
	}
	om.DPCandidates.Add(int64(candidates))
	if om.Trace.Enabled() && !math.IsInf(cur.pbest, 1) {
		om.Trace.Event("dp_cell").Int("tasks", j).Int("big", b).Int("little", l).
			F64("period", cur.pbest).Int("stage_start", int(cur.start)).
			Str("type", cur.v.String()).Int("candidates", candidates)
	}
	*m.at(j, b, l) = cur
}

// gridCount returns how many replica counts the u loop visits from u to
// maxU inclusive (u ≤ maxU): all of them in the exact fill (gamma = 0), the
// points of the geometric grid otherwise.
func gridCount(u, maxU int, gamma float64) int {
	if gamma == 0 {
		return maxU - u + 1
	}
	k := 0
	for ; u <= maxU; u = gridNext(u, gamma) {
		k++
	}
	return k
}

// predecessorWindow returns the largest split point i ≤ j whose one-core
// predecessor — (i−1, b−1, l) or (i−1, b, l−1), whichever exists — has
// pbest ≤ thr. Every candidate at a larger split uses at least one core,
// so its predecessor has at most those core counts and a period > thr: it
// loses to an incumbent of period thr. Exact P*(i−1, ·) is non-decreasing
// in i, which makes the predicate binary-searchable; row 0 (pbest 0)
// always qualifies, so the result is ≥ 1. Exact fill only: an ε cell need
// not be monotone in i.
func predecessorWindow(m *matrix, j, b, l int, thr float64) int {
	fits := func(i int) bool {
		return (b > 0 && m.at(i-1, b-1, l).pbest <= thr) ||
			(l > 0 && m.at(i-1, b, l-1).pbest <= thr)
	}
	if fits(j) {
		return j
	}
	lo, hi := 1, j-1 // invariant: fits(lo); the window's end is in [lo, hi]
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if fits(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// skippedSplitCandidates counts the candidates the exact full walk
// evaluates at the split points start+1..j that predecessorWindow skips:
// b+l per replicable stage, one per core type with at least one core per
// sequential stage. Replicable splits are a suffix of the range (a shorter
// interval only loses sequential tasks), found by binary search.
func skippedSplitCandidates(c *core.Chain, j, b, l, start int) int {
	if start >= j {
		return 0
	}
	lo, hi := start+1, j+1 // the first replicable split is in [lo, hi]; j+1 = none
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.IsRep(mid-1, j-1) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	nRep := j + 1 - lo
	nSeq := j - start - nRep
	return nRep*(b+l) + nSeq*(min(b, 1)+min(l, 1))
}

// compareCells implements Algo 10: cur is replaced by cand when cand has a
// strictly smaller period or, at equal periods, when cand better exchanges
// big cores for little ones or uses fewer (or equal) cores of both types.
func compareCells(cur *cell, cand *cell) {
	switch {
	case cur.pbest > cand.pbest:
		*cur = *cand
	case cur.pbest == cand.pbest &&
		((cur.accL < cand.accL && cur.accB > cand.accB) ||
			(cur.accL >= cand.accL && cur.accB >= cand.accB)):
		*cur = *cand
	}
}

// extractSolution implements Algo 11: it walks the DP matrix backwards
// from the full problem, recovering each stage's interval, core type and
// per-stage core count (by subtracting the predecessor's accumulated
// usage).
func extractSolution(m *matrix, c *core.Chain, n, b, l int) core.Solution {
	e, rb, rl := n, b, l
	var sol core.Solution
	for e >= 1 {
		cl := m.at(e, rb, rl)
		if math.IsInf(cl.pbest, 1) {
			return core.Solution{} // unschedulable (no cores)
		}
		s := int(cl.start)
		ub, ul := cl.accB, cl.accL
		pb, pl := int(cl.prevB), int(cl.prevL)
		if s >= 1 {
			prev := m.at(s, pb, pl)
			ub -= prev.accB
			ul -= prev.accL
		}
		r := int(ub)
		if cl.v == core.Little {
			r = int(ul)
		}
		sol = sol.Prepend(core.Stage{Start: s, End: e - 1, Cores: r, Type: cl.v})
		e, rb, rl = s, pb, pl
	}
	return sol
}
