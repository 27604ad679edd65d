package herad

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ampsched/internal/brute"
	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/obs"
)

// epsTol absorbs the 1-ulp slack of the fill's multiply-by-inverse
// thresholds: the ε guarantee is proved for real arithmetic, so the
// assertions allow one part in 10⁹ on top of (1+ε).
const epsTol = 1 + 1e-9

// TestEpsilonZeroBitIdentical pins the ε=0 contract: Options.Epsilon = 0
// must leave the fill untouched — not merely period-equal but the same
// solution, stage for stage, on both the 2D fast path and the general
// k-type fill. The ε constants all collapse to exact values at ε=0, so
// any divergence here means the beam machinery leaks into the exact path.
func TestEpsilonZeroBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 80; iter++ {
		n := 1 + rng.Intn(24)
		c := chaingen.Generate(chaingen.Default(n, []float64{0, 0.3, 0.5, 0.8, 1}[rng.Intn(5)]), rng)
		r := core.Res(1+rng.Intn(5), rng.Intn(5))
		want := ScheduleOpts(c, r, Options{})
		for _, o := range []Options{
			{Epsilon: 0},
			{Epsilon: -0.5}, // negative normalizes to exact
			{Epsilon: 0, ForceGeneral: true},
		} {
			got := ScheduleOpts(c, r, o)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d: opts %+v diverged from exact\n got %v\nwant %v\nchain=%+v R=%v",
					iter, o, got, want, c.Tasks(), r)
			}
		}
	}
}

// TestEpsilonBoundVsExact is the (1+ε) guarantee, differentially against
// the exact HeRAD fill: for random chains and every tested ε, the ε fill's
// schedule must validate and its period must satisfy P ≤ (1+ε)·P*. The
// lower bound P ≥ P* holds for free — the ε fill only prunes candidates,
// it never invents one — and is asserted too, as a cheap corruption check.
func TestEpsilonBoundVsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for iter := 0; iter < 60; iter++ {
		n := 2 + rng.Intn(40)
		c := chaingen.Generate(chaingen.Default(n, []float64{0, 0.3, 0.5, 0.8, 1}[rng.Intn(5)]), rng)
		r := core.Res(1+rng.Intn(6), rng.Intn(6))
		exact := ScheduleOpts(c, r, Options{}).Period(c)
		for _, eps := range []float64{0.01, 0.05, 0.2, 1.0} {
			s := ScheduleOpts(c, r, Options{Epsilon: eps})
			if err := s.Validate(c, r); err != nil {
				t.Fatalf("iter %d eps %v: invalid: %v", iter, eps, err)
			}
			p := s.Period(c)
			if p > exact*(1+eps)*epsTol {
				t.Fatalf("iter %d eps %v: period %v exceeds (1+ε)·%v\nchain=%+v R=%v",
					iter, eps, p, exact, c.Tasks(), r)
			}
			if p < exact-1e-9 {
				t.Fatalf("iter %d eps %v: period %v below exact optimum %v", iter, eps, p, exact)
			}
		}
	}
}

// TestEpsilonBoundVsBrute re-anchors the bound against the independent
// brute-force oracle on small chains, so a bug shared by the exact and the
// ε fill cannot vouch for itself.
func TestEpsilonBoundVsBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for iter := 0; iter < 80; iter++ {
		n := 1 + rng.Intn(7)
		c := chaingen.Generate(chaingen.Default(n, []float64{0, 0.2, 0.5, 0.8, 1}[rng.Intn(5)]), rng)
		r := core.Res(rng.Intn(4), rng.Intn(4))
		if r.Total() == 0 {
			r = r.With(core.Big, 1)
		}
		want := brute.MinPeriod(c, r)
		for _, eps := range []float64{0.01, 0.05, 0.5} {
			p := ScheduleOpts(c, r, Options{Epsilon: eps}).Period(c)
			if p > want*(1+eps)*epsTol {
				t.Fatalf("iter %d eps %v: period %v exceeds (1+ε)·brute %v\nchain=%+v R=%v",
					iter, eps, p, want, c.Tasks(), r)
			}
		}
	}
}

// TestEpsilonBoundGeneralFill runs the bound against the k-type general
// fill: the two-type instance through ForceGeneral (differential with the
// fast path's exact optimum) and a genuine three-type instance against its
// own exact general fill.
func TestEpsilonBoundGeneralFill(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for iter := 0; iter < 30; iter++ {
		n := 2 + rng.Intn(20)
		c2 := chaingen.Generate(chaingen.Default(n, 0.5), rng)
		r2 := core.Res(1+rng.Intn(4), 1+rng.Intn(4))
		exact2 := ScheduleOpts(c2, r2, Options{}).Period(c2)
		c3 := chaingen.Generate(chaingen.Default3(n, 0.5), rng)
		r3 := core.Res(1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(3))
		exact3 := ScheduleOpts(c3, r3, Options{}).Period(c3)
		for _, eps := range []float64{0.01, 0.05, 0.3} {
			p2 := ScheduleOpts(c2, r2, Options{Epsilon: eps, ForceGeneral: true}).Period(c2)
			if p2 > exact2*(1+eps)*epsTol {
				t.Fatalf("iter %d eps %v: general 2-type period %v exceeds (1+ε)·%v", iter, eps, p2, exact2)
			}
			s3 := ScheduleOpts(c3, r3, Options{Epsilon: eps})
			if err := s3.Validate(c3, r3); err != nil {
				t.Fatalf("iter %d eps %v: invalid 3-type: %v", iter, eps, err)
			}
			if p3 := s3.Period(c3); p3 > exact3*(1+eps)*epsTol {
				t.Fatalf("iter %d eps %v: 3-type period %v exceeds (1+ε)·%v", iter, eps, p3, exact3)
			}
		}
	}
}

// TestEpsilonPrunesWork asserts the beam actually beams: on a chain large
// enough for the grids to engage, the ε fill must visit strictly fewer DP
// candidates than the exact fill (the wall-clock claim of BENCH_PR7.json,
// in its deterministic form).
func TestEpsilonPrunesWork(t *testing.T) {
	c := chaingen.GenerateMany(chaingen.Default(192, 0.5), 11, 1)[0]
	r := core.Res(4, 4)
	count := func(eps float64) int64 {
		reg := obs.NewRegistry()
		ScheduleOpts(c, r, Options{Epsilon: eps, Metrics: MetricsFrom(reg)})
		return MetricsFrom(reg).DPCandidates.Value()
	}
	exact := count(0)
	pruned := count(0.05)
	if exact == 0 {
		t.Fatal("exact fill reported no candidates — counter wiring broken")
	}
	if pruned >= exact {
		t.Fatalf("eps=0.05 visited %d candidates, exact %d — beam not pruning", pruned, exact)
	}
}

// TestEpsilonNaN pins that a NaN ε cannot poison the fill: it normalizes
// to the exact schedule.
func TestEpsilonNaN(t *testing.T) {
	c := core.MustChain([]core.Task{task(10, 20, false), task(8, 16, true), task(4, 9, true)})
	r := core.Res(2, 2)
	want := ScheduleOpts(c, r, Options{})
	got := ScheduleOpts(c, r, Options{Epsilon: math.NaN()})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("NaN epsilon diverged: %v vs %v", got, want)
	}
}
