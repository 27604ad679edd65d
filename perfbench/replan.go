package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/herad"
	"ampsched/internal/obs"
	"ampsched/internal/strategy"
)

// replan-edits: one closed-loop client re-plans a HeRAD chain through
// strategy.ReplanBatch after each seeded single-task edit. Requests
// alternate between the starting chain with one edit and the starting
// chain again, so every request is a single-task edit of the chain the
// planner holds (the edit, then its undo) and the chain never drifts:
// when edits accumulated, a 10 s run replaced most of the chain and its
// DP cost hinged on the chain the seed drifted to, so plans/s moved 12%
// between seeds on a quiet host. The kinds cycle reweigh, append,
// remove; reweigh and remove pick their position uniformly, so the
// refilled share of the DP matrix ranges from a few rows to all of it,
// and append refills one row. With the kinds drawn at random the share
// of one-row appends moved the median latency by 10% between seeds. The
// starting chain is the same for every run (replanChainSeed); --seed
// draws the positions and the new tasks. n=256 rather than 512 keeps well
// over 1000 requests in a run on a 2-CPU host.
const (
	replanChainSeed = 1
	replanN         = 256
	// replanCheckEvery spaces the requests whose warm result is compared
	// with a cold PlanBatch of the same chain after the run.
	replanCheckEvery = 97
)

var replanResources = core.Res(4, 4)

type replanState struct {
	rng     *rand.Rand
	base    *core.Chain // the starting chain every edit applies to
	chain   *core.Chain // the chain the planner holds
	edits   int         // edits made so far
	edited  bool        // chain is base with one edit, which the next request undoes
	planner *herad.Planner
}

func setupReplan(cfg config) (any, error) {
	c := chaingen.Generate(chaingen.Default(replanN, 0.5), rand.New(rand.NewSource(replanChainSeed)))
	rng := rand.New(rand.NewSource(cfg.seed))
	p, err := strategy.NewHeradPlanner(c, replanResources, strategy.Options{})
	if err != nil {
		return nil, err
	}
	return &replanState{rng: rng, base: c, chain: c, planner: p}, nil
}

// warmReplan runs full refills (task 0 reweighed back and forth), so the
// warm-up costs the same on every seed.
func warmReplan(state any) error {
	st := state.(*replanState)
	herad := strategy.MustParse("herad")
	for i := 0; i < 12; i++ {
		tasks := st.chain.Tasks()
		tasks[0].Weight = core.Weights(tasks[0].Weight[0]+float64(1-2*(i%2)), tasks[0].Weight[1])
		c := core.MustChain(tasks)
		out, np, _ := strategy.ReplanBatch(st.planner, []strategy.Request{{Chain: c, Resources: replanResources, Scheduler: herad}})
		if out[0].Err != nil {
			return out[0].Err
		}
		st.planner, st.chain = np, c
	}
	return nil
}

// edit returns base after one seeded single-task edit of the given kind
// (0 reweigh, 1 append, 2 remove) at a uniform position.
func edit(rng *rand.Rand, base *core.Chain, kind int) *core.Chain {
	tasks := base.Tasks()
	newTask := func() core.Task {
		wb := float64(1 + rng.Intn(100))
		return core.Task{
			Name:       fmt.Sprintf("e%d", rng.Int63()),
			Weight:     core.Weights(wb, math.Ceil(wb*(1+4*rng.Float64()))),
			Replicable: rng.Intn(2) == 0,
		}
	}
	switch kind {
	case 0: // reweigh
		tasks[rng.Intn(len(tasks))] = newTask()
	case 1: // append
		tasks = append(tasks, newTask())
	default: // remove
		i := rng.Intn(len(tasks))
		tasks = append(tasks[:i], tasks[i+1:]...)
	}
	return core.MustChain(tasks)
}

// replanRecord is one completed re-plan request; chain is kept only for
// the sampled requests checked against a cold plan.
type replanRecord struct {
	elapsed time.Duration
	chain   *core.Chain
	sol     core.Solution
	err     error
}

// step makes the next edit (or undoes the last) and re-plans it; reg and spans are the traced
// run's sinks (nil when untraced).
func (st *replanState) step(reg *obs.Registry, spans *spanLog) (replanRecord, strategy.ReplanStats, error) {
	c := st.base
	if !st.edited {
		c = edit(st.rng, st.base, st.edits%3)
		st.edits++
	}
	st.edited = !st.edited
	req := strategy.Request{Chain: c, Resources: replanResources, Scheduler: strategy.MustParse("herad"),
		Options: strategy.Options{Metrics: reg}}
	t0 := time.Now()
	out, p, stats := strategy.ReplanBatch(st.planner, []strategy.Request{req})
	t1 := time.Now()
	spans.record(0, 0, "strategy", "ReplanBatch", t0, t1)
	st.planner, st.chain = p, c
	return replanRecord{elapsed: t1.Sub(t0), chain: c, sol: out[0].Solution, err: out[0].Err}, stats, out[0].Err
}

type replanTotals struct {
	recs    []replanRecord
	wall    time.Duration // phase wall time less the time spent checking
	refill  int
	rows    int
	cold    int
	elapsed time.Duration
}

func (t replanTotals) elapsedAll() []time.Duration {
	out := make([]time.Duration, len(t.recs))
	for i, r := range t.recs {
		out[i] = r.elapsed
	}
	return out
}

// replanPhase runs the client for d. Each result is validated against
// its chain right after the call, off the clock; only every
// replanCheckEvery-th record keeps its chain for the cold comparison.
func replanPhase(st *replanState, d time.Duration, reg *obs.Registry, spans *spanLog, res *result) replanTotals {
	var t replanTotals
	var checking time.Duration
	start := time.Now()
	for time.Since(start) < d {
		rec, stats, _ := st.step(reg, spans)
		c0 := time.Now()
		res.attempted++
		if rec.err != nil {
			res.fail(1, "re-plan %d: %v", len(t.recs), rec.err)
		} else if err := rec.sol.Validate(rec.chain, replanResources); err != nil {
			res.fail(1, "re-plan %d: invalid solution: %v", len(t.recs), err)
		}
		if len(t.recs)%replanCheckEvery != 0 {
			rec.chain = nil
		}
		checking += time.Since(c0)
		t.recs = append(t.recs, rec)
		t.refill += stats.RowsRefilled
		t.rows += stats.RowsTotal
		t.cold += stats.Cold
		t.elapsed += rec.elapsed
	}
	t.wall = time.Since(start) - checking
	return t
}

func runReplan(cfg config, state any, res *result) error {
	st := state.(*replanState)
	measured := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		measured /= 3
	}
	var t replanTotals
	var steal stolen
	steal.during(func() { t = replanPhase(st, measured, nil, nil, res) })
	lat := t.elapsedAll()
	raw := windowRate(lat)
	thr := steal.granted(raw)
	ms := durationsMs(lat)
	p25, p50, p99 := quantile(ms, 0.25), quantile(ms, 0.5), quantile(ms, 0.99)
	res.e2e["throughput_per_s"] = thr
	res.e2e["latency_ms_p25"] = p25
	res.name("plans_per_s", thr, "1/s")
	res.name("plans_per_s_raw", raw, "1/s")
	res.name("steal_share_closed", steal.share(), "ratio")
	res.name("plans_per_s_wall", float64(len(t.recs))/t.wall.Seconds(), "1/s")
	res.name("plan_ms_p25", p25, "ms")
	res.name("plan_ms_p50", p50, "ms")
	res.name("plan_ms_p99", p99, "ms")
	res.name("plan_requests", float64(len(t.recs)), "count")

	recs := t.recs
	cold := t.cold
	if cfg.trace {
		// The program's own sinks only (the strategy.Options.Metrics
		// counters), for the overhead ratio; then the benchmark's spans.
		sinks := replanPhase(st, measured, obs.NewRegistry(), nil, res)
		spanned := replanPhase(st, measured, nil, cfg.spans, res)
		recs = append(append(recs, sinks.recs...), spanned.recs...)
		cold += sinks.cold + spanned.cold
		res.layer["trace.overhead_ratio"] = ratio(windowRate(sinks.elapsedAll()), raw)
		res.layer["tail.latency_ms_p99"] = p99
		res.layer["herad.rows_refilled_ratio"] = ratio(float64(t.refill), float64(t.rows))
		res.layer["herad.ms_per_refilled_row"] = ratio(float64(t.elapsed)/float64(time.Millisecond), float64(t.refill))
		res.layer["strategy.replan_cold"] = float64(cold)
	}
	res.check(cold == 0, "%d re-plans fell back to a cold plan", cold)
	checkReplans(recs, res)
	return nil
}

// checkReplans compares the sampled warm results with a cold PlanBatch
// of the same chain.
func checkReplans(recs []replanRecord, res *result) {
	herad := strategy.MustParse("herad")
	for i, r := range recs {
		if r.chain == nil || r.err != nil {
			continue
		}
		cold := strategy.PlanBatch([]strategy.Request{{Chain: r.chain, Resources: replanResources, Scheduler: herad}}, 1)[0]
		res.check(cold.Err == nil && sameSolution(cold.Solution, r.sol),
			"re-plan %d: warm %v, cold %v", i, r.sol, cold.Solution)
	}
}

func sameSolution(a, b core.Solution) bool {
	if len(a.Stages) != len(b.Stages) {
		return false
	}
	for i := range a.Stages {
		if a.Stages[i] != b.Stages[i] {
			return false
		}
	}
	return true
}
