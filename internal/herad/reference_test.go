package herad

import (
	"math"
	"math/rand"
	"testing"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/obs"
)

// The reference fill walks every candidate the dominance cut leaves: it
// builds and tie-compares a cell for each (split, type, count), skipping
// none of the losers recomputeCell skips (DESIGN.md §4e). It is the oracle
// for the three candidate cuts: every cell (pbest, acc*, prev*, start, v)
// and every herad.dp.* counter of the production fill must match it
// exactly, at every ε.

// refFillRows is fillRows over refRecomputeCell.
func refFillRows(m *matrix, c *core.Chain, from, to int, om Metrics) {
	for j := from; j <= to; j++ {
		singleStageSolution(m, c, j)
		if j < 2 {
			continue
		}
		for ub := 0; ub <= m.b; ub++ {
			for ul := 0; ul <= m.l; ul++ {
				if ub != 0 || ul != 0 {
					refRecomputeCell(m, c, j, ub, ul, om)
				}
			}
		}
	}
}

// refRecomputeCell is the full-walk Algo 9 the production recomputeCell
// must reproduce cell for cell: it computes P*(j, b, l) by comparing
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
// cut even earlier; together the two reproduce the former walk's candidate
// set, prune count and trace events exactly.
func refRecomputeCell(m *matrix, c *core.Chain, j, b, l int, om Metrics) {
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
	for i := j; i > iCut; i-- {
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
			candidates++
			prev := m.at(i-1, b-u, l)
			p := wB
			if rep {
				p = wB / float64(u)
			}
			if prev.pbest > p {
				p = prev.pbest
			}
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
			if m.eps > 0 {
				u = gridNext(u, m.gamma) - 1 // loop's u++ lands on the grid point
			}
		}
		for u := uStartL; u <= maxUL; u++ {
			candidates++
			prev := m.at(i-1, b, l-u)
			p := wL
			if rep {
				p = wL / float64(u)
			}
			if prev.pbest > p {
				p = prev.pbest
			}
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

// dpCounters snapshots the herad.dp.* counters of one fill.
type dpCounters struct{ cells, candidates, pruned int64 }

func countersOf(om Metrics) dpCounters {
	return dpCounters{om.DPCells.Value(), om.DPCandidates.Value(), om.DPPruned.Value()}
}

// fillWith fills a fresh (n+1)×(b+1)×(l+1) matrix for c with fill.
func fillWith(c *core.Chain, b, l int, eps float64,
	fill func(*matrix, *core.Chain, int, int, Metrics)) (*matrix, dpCounters) {
	om := MetricsFrom(obs.NewRegistry())
	m := newMatrix(c.Len(), b, l, eps)
	fill(m, c, 1, c.Len(), om)
	return m, countersOf(om)
}

// sameCells reports the first cell where got and want differ.
func sameCells(t *testing.T, got, want *matrix, what string) {
	t.Helper()
	if len(got.cells) != len(want.cells) {
		t.Fatalf("%s: %d cells, reference %d", what, len(got.cells), len(want.cells))
	}
	for k := range want.cells {
		if got.cells[k] != want.cells[k] {
			rl := got.l + 1
			rb := (got.b + 1) * rl
			t.Fatalf("%s: cell (j=%d, b=%d, l=%d) = %+v, reference %+v", what,
				k/rb, k%rb/rl, k%rl, got.cells[k], want.cells[k])
		}
	}
}

// checkFillAgainstReference fills c on (b, l) at ε both ways and compares
// every cell and counter.
func checkFillAgainstReference(t *testing.T, c *core.Chain, b, l int, eps float64, what string) {
	t.Helper()
	got, gotN := fillWith(c, b, l, eps, fillRows)
	want, wantN := fillWith(c, b, l, eps, refFillRows)
	sameCells(t, got, want, what)
	if gotN != wantN {
		t.Fatalf("%s: counters %+v, reference %+v", what, gotN, wantN)
	}
}

// tieChain draws n tasks with small integer weights, so interval weights
// and replicated periods collide often and the tie-break does real work.
func tieChain(rng *rand.Rand, n int) *core.Chain {
	tasks := make([]core.Task, n)
	for i := range tasks {
		wb := float64(1 + rng.Intn(4))
		tasks[i] = core.Task{
			Weight:     core.Weights(wb, wb*float64(1+rng.Intn(2))),
			Replicable: rng.Intn(3) != 0,
		}
	}
	return core.MustChain(tasks)
}

var refEpsilons = []float64{0, 0.01, 0.05}

// TestFillMatchesReference is the differential test of the candidate
// cuts: chaingen chains across stateless ratios and tie-heavy integer
// chains, on (b, l) pairs including b = 0 and l = 0, at every ε.
func TestFillMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for iter := 0; iter < 150; iter++ {
		n := 1 + rng.Intn(40)
		var c *core.Chain
		if iter%3 == 2 {
			c = tieChain(rng, n)
		} else {
			sr := []float64{0, 0.2, 0.5, 0.8, 1}[rng.Intn(5)]
			c = chaingen.Generate(chaingen.Default(n, sr), rng)
		}
		b, l := rng.Intn(7), rng.Intn(7)
		if b+l == 0 {
			b = 1
		}
		for _, eps := range refEpsilons {
			checkFillAgainstReference(t, c, b, l, eps, "fill")
		}
	}
}

// TestPlannerMatchesReference drives Reweigh/Append/Remove/Rebase edits
// through a Planner and compares its refilled matrix and counters with a
// reference fill of the edited chain after every edit.
func TestPlannerMatchesReference(t *testing.T) {
	for _, eps := range refEpsilons {
		rng := rand.New(rand.NewSource(223))
		c := chaingen.Generate(chaingen.Default(20, 0.5), rng)
		r := core.Res(3, 4)
		p, err := NewPlanner(c, r, Options{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 40; step++ {
			n := p.Chain().Len()
			reg := obs.NewRegistry()
			p.o.Metrics = MetricsFrom(reg)
			from := 1
			switch op := rng.Intn(4); {
			case op == 0 || n == 1:
				err, from = p.Append(randTask(rng, 2)), n+1
			case op == 1:
				i := rng.Intn(n)
				err, from = p.Remove(i), i+1
			case op == 2:
				i := rng.Intn(n)
				err, from = p.Reweigh(i, randTask(rng, 2)), i+1
			default:
				tasks := p.Chain().Tasks()
				i := rng.Intn(n)
				tasks[i] = randTask(rng, 2)
				err, from = p.Rebase(core.MustChain(tasks)), i+1
			}
			if err != nil {
				t.Fatalf("eps %v step %d: %v", eps, step, err)
			}
			want, _ := fillWith(p.Chain(), 3, 4, eps, refFillRows)
			sameCells(t, p.m2, want, "planner")
			// The refill's counters match a reference refill of the same rows.
			wantOM := MetricsFrom(obs.NewRegistry())
			ref := newMatrix(p.Chain().Len(), 3, 4, eps)
			copy(ref.cells, want.cells[:from*ref.rowLen()])
			refFillRows(ref, p.Chain(), from, p.Chain().Len(), wantOM)
			if got, want := countersOf(p.o.Metrics), countersOf(wantOM); got != want {
				t.Fatalf("eps %v step %d: refill counters %+v, reference %+v", eps, step, got, want)
			}
		}
	}
}

// FuzzFillMatchesReference fuzzes the differential test: every byte pair
// of data becomes a task with small integer weights (ties galore) and a
// replicability bit.
func FuzzFillMatchesReference(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(0), []byte{3, 1, 7, 2, 4, 9, 1, 1})
	f.Add(uint8(0), uint8(3), uint8(1), []byte{1, 1, 1, 1, 1, 1})
	f.Add(uint8(4), uint8(0), uint8(2), []byte{5, 2, 6, 3, 250, 8, 9, 1, 2, 2})
	f.Add(uint8(3), uint8(3), uint8(0), []byte{0, 0, 8, 8, 16, 16, 1, 2})
	f.Fuzz(func(t *testing.T, b, l, e uint8, data []byte) {
		bb, ll := int(b%6), int(l%6)
		if bb+ll == 0 || len(data) < 2 {
			return
		}
		if len(data) > 64 {
			data = data[:64]
		}
		tasks := make([]core.Task, len(data)/2)
		for i := range tasks {
			x, y := data[2*i], data[2*i+1]
			wb := float64(x % 8)
			tasks[i] = core.Task{
				Weight:     core.Weights(wb, wb+float64(y%8)),
				Replicable: x&0x80 == 0,
			}
		}
		c := core.MustChain(tasks)
		checkFillAgainstReference(t, c, bb, ll, refEpsilons[int(e)%len(refEpsilons)], "fuzz")
	})
}

// TestDPMonotonicity pins the two facts the cuts rest on: exact P*(j, b, l)
// is non-decreasing in j (a schedule of j tasks restricted to the first
// j−1 is no slower), and P*(j, b, l) is non-increasing in each core count
// at every ε (each cell is compared with its one-core-less neighbors).
func TestDPMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	for iter := 0; iter < 60; iter++ {
		n := 1 + rng.Intn(30)
		c := chaingen.Generate(chaingen.Default(n, []float64{0, 0.5, 1}[rng.Intn(3)]), rng)
		if iter%2 == 1 {
			c = tieChain(rng, n)
		}
		b, l := rng.Intn(6), rng.Intn(6)
		for _, eps := range refEpsilons {
			m, _ := fillWith(c, b, l, eps, refFillRows)
			for j := 0; j <= n; j++ {
				for ub := 0; ub <= b; ub++ {
					for ul := 0; ul <= l; ul++ {
						p := m.at(j, ub, ul).pbest
						if ub > 0 && p > m.at(j, ub-1, ul).pbest {
							t.Fatalf("eps %v: P*(%d,%d,%d)=%v > P*(%d,%d,%d)=%v",
								eps, j, ub, ul, p, j, ub-1, ul, m.at(j, ub-1, ul).pbest)
						}
						if ul > 0 && p > m.at(j, ub, ul-1).pbest {
							t.Fatalf("eps %v: P*(%d,%d,%d)=%v > P*(%d,%d,%d)=%v",
								eps, j, ub, ul, p, j, ub, ul-1, m.at(j, ub, ul-1).pbest)
						}
						if eps == 0 && j > 0 && p < m.at(j-1, ub, ul).pbest {
							t.Fatalf("exact P*(%d,%d,%d)=%v < P*(%d,%d,%d)=%v",
								j, ub, ul, p, j-1, ub, ul, m.at(j-1, ub, ul).pbest)
						}
					}
				}
			}
		}
	}
}
