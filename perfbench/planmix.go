package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	"ampsched/internal/brute"
	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/obs"
	"ampsched/internal/strategy"
)

// plan-mix: campaign planning. Table I traffic — chaingen.Default(20, SR)
// for SR ∈ {0.2, 0.5, 0.8}, R ∈ {(16,4), (10,10), (4,16)}, every
// registered strategy — sets the median; one request in 32 is HeRAD on a
// long chain (n=1024 on (4B,4L), exact and ε=0.05 alternating), which
// sets the 99th percentile. The long class is placed deterministically
// rather than drawn, so its share, and so the percentile it sets, is the
// same on every seed.
const (
	tableIChainsPerSR = 12
	longChains        = 8
	longN             = 1024
	longEvery         = 32
	longEpsilon       = 0.05
)

var (
	tableISR        = []float64{0.2, 0.5, 0.8}
	tableIResources = []core.Resources{core.Res(16, 4), core.Res(10, 10), core.Res(4, 16)}
	longResources   = core.Res(4, 4)
)

// planClass labels a request for the per-class latency breakdown.
type planClass int

const (
	classTableI planClass = iota
	classLongExact
	classLongEps
)

// planEntry is one request of the seeded request list; pair groups the
// entries that share a (chain, resources) pair so results can be
// cross-checked between strategies.
type planEntry struct {
	req   strategy.Request
	class planClass
	pair  int
}

// There is one client, not one per CPU: with two clients on a 2-vCPU
// host each client's sub-50µs heuristic requests share the machine with
// the other's long DP fills and their garbage collection, and the
// run-to-run spread of the median doubled (README.md).
type planMixState struct {
	entries []planEntry
	pairs   int
	small   []*core.Chain      // brute-force sample
	warm    []strategy.Request // one of every class, planned by warmPlanMix
}

func setupPlanMix(cfg config) (any, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	st := &planMixState{}
	var table []planEntry
	for _, sr := range tableISR {
		for i := 0; i < tableIChainsPerSR; i++ {
			c := chaingen.Generate(chaingen.Default(20, sr), rng)
			for _, r := range tableIResources {
				for _, s := range strategy.All() {
					table = append(table, planEntry{
						req:  strategy.Request{Chain: c, Resources: r, Scheduler: s, Options: strategy.Options{Workers: 1}},
						pair: st.pairs,
					})
				}
				st.pairs++
			}
		}
	}
	rng.Shuffle(len(table), func(i, j int) { table[i], table[j] = table[j], table[i] })
	herad := strategy.MustParse("herad")
	var long []planEntry
	for i := 0; i < longChains; i++ {
		c := chaingen.Generate(chaingen.Default(longN, 0.5), rng)
		for _, eps := range []float64{0, longEpsilon} {
			class := classLongExact
			if eps > 0 {
				class = classLongEps
			}
			long = append(long, planEntry{
				req:   strategy.Request{Chain: c, Resources: longResources, Scheduler: herad, Options: strategy.Options{Workers: 1, Epsilon: eps}},
				class: class,
				pair:  st.pairs,
			})
		}
		st.pairs++
	}
	for i, li := 0, 0; i < len(table); i++ {
		if len(st.entries)%longEvery == longEvery-1 {
			st.entries = append(st.entries, long[li%len(long)])
			li++
		}
		st.entries = append(st.entries, table[i])
	}
	for i := 0; i < 6; i++ {
		st.small = append(st.small, chaingen.Generate(chaingen.Default(6+i%3, tableISR[i%3]), rng))
	}
	st.warm = []strategy.Request{long[0].req, long[1].req}
	for i := 0; i < 64 && i < len(table); i++ {
		st.warm = append(st.warm, table[i].req)
	}
	return st, nil
}

// warmPlanMix plans one request of every class, so the first timed
// requests do not pay for cold caches and heap growth.
func warmPlanMix(state any) error {
	for _, res := range strategy.PlanBatch(state.(*planMixState).warm, 1) {
		if res.Err != nil {
			return res.Err
		}
	}
	return nil
}

// planRecord is one completed request of a measured phase.
type planRecord struct {
	entry   int
	elapsed time.Duration
	res     strategy.Result
}

// planPhase runs the closed-loop client for d and returns the records
// and the phase's wall time: the client walks the request list and sends
// its next request when the previous completes. reg and spans are the
// traced run's sinks (nil when untraced).
func planPhase(st *planMixState, d time.Duration, reg *obs.Registry, spans *spanLog) ([]planRecord, time.Duration) {
	out := make([]planRecord, 0, 8192)
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		e := i % len(st.entries)
		req := st.entries[e].req
		req.Options.Metrics = reg
		t0 := time.Now()
		res := strategy.PlanBatch([]strategy.Request{req}, 1)[0]
		t1 := time.Now()
		spans.record(0, 0, "strategy", "PlanBatch/"+req.Scheduler.Name(), t0, t1)
		out = append(out, planRecord{entry: e, elapsed: t1.Sub(t0), res: res})
	}
	return out, time.Since(start)
}

func runPlanMix(cfg config, state any, res *result) error {
	st := state.(*planMixState)
	measured := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		measured /= 3
	}
	var recs []planRecord
	var wall time.Duration
	var steal stolen
	steal.during(func() { recs, wall = planPhase(st, measured, nil, nil) })
	lat := planElapsed(recs)
	raw := windowRate(lat)
	thr := steal.granted(raw)
	ms := durationsMs(lat)
	p25, p50, p99 := quantile(ms, 0.25), quantile(ms, 0.5), quantile(ms, 0.99)
	res.e2e["throughput_per_s"] = thr
	res.e2e["latency_ms_p25"] = p25
	res.name("plans_per_s", thr, "1/s")
	res.name("plans_per_s_raw", raw, "1/s")
	res.name("steal_share_closed", steal.share(), "ratio")
	res.name("plans_per_s_wall", float64(len(recs))/wall.Seconds(), "1/s")
	res.name("plan_ms_p25", p25, "ms")
	res.name("plan_ms_p50", p50, "ms")
	res.name("plan_ms_p99", p99, "ms")
	res.name("plan_requests", float64(len(recs)), "count")

	all := recs
	if cfg.trace {
		// The program's own sinks only (the strategy.Options.Metrics
		// counters), for the overhead ratio and the counters; then the
		// benchmark's spans only.
		reg := obs.NewRegistry()
		sinks, _ := planPhase(st, measured, reg, nil)
		spanned, _ := planPhase(st, measured, nil, cfg.spans)
		all = append(append(all, sinks...), spanned...)
		res.layer["trace.overhead_ratio"] = ratio(windowRate(planElapsed(sinks)), raw)
		res.layer["tail.latency_ms_p99"] = p99
		planMixLayers(st, recs, reg, res)
	}
	checkPlans(st, all, res)
	return nil
}

func planElapsed(recs []planRecord) []time.Duration {
	out := make([]time.Duration, len(recs))
	for i, r := range recs {
		out[i] = r.elapsed
	}
	return out
}

// planMixLayers fills the per-layer metrics from the untraced phase's
// latencies (timed around each call) and the sinks phase's counters.
func planMixLayers(st *planMixState, recs []planRecord, reg *obs.Registry, res *result) {
	byStrategy := map[string][]float64{}
	byClass := map[string][]float64{}
	for _, r := range recs {
		e := st.entries[r.entry]
		ms := float64(r.elapsed) / float64(time.Millisecond)
		switch e.class {
		case classTableI:
			slug := obs.Slug(e.req.Scheduler.Name())
			byStrategy[slug] = append(byStrategy[slug], ms)
			if slug == "herad" {
				byClass["n20"] = append(byClass["n20"], ms)
			}
		case classLongExact:
			byClass["n1024"] = append(byClass["n1024"], ms)
		case classLongEps:
			byClass["n1024_eps05"] = append(byClass["n1024_eps05"], ms)
		}
	}
	for slug, xs := range byStrategy {
		res.layer["strategy.plan_ms_p50."+slug] = quantile(xs, 0.5)
	}
	for class, xs := range byClass {
		res.layer["herad.plan_ms_p50."+class] = quantile(xs, 0.5)
	}
	cnt := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	cells := cnt("herad.herad.dp.cells")
	cands := cnt("herad.herad.dp.candidates")
	res.layer["herad.dp_cells_per_plan"] = ratio(cells, cnt("herad.schedule.calls"))
	res.layer["herad.dp_candidates_per_cell"] = ratio(cands, cells)
	res.layer["herad.dp_pruned_ratio"] = ratio(cnt("herad.herad.dp.pruned"), cands)
	res.layer["twocatac.nodes_per_plan"] = ratio(cnt("2catac.twocatac.recursion.nodes"), cnt("2catac.schedule.calls"))
	var iters, calls float64
	for _, slug := range []string{"2catac", "fertac", "otac_b", "otac_l"} {
		iters += cnt(slug + ".sched.search.iterations")
		calls += cnt(slug + ".schedule.calls")
	}
	res.layer["sched.search_iterations_per_plan"] = ratio(iters, calls)

	// Bytes allocated by one exact long-chain plan, measured serially.
	for _, e := range st.entries {
		if e.class != classLongExact {
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const reps = 2
		for i := 0; i < reps; i++ {
			strategy.PlanBatch([]strategy.Request{e.req}, 1)
		}
		runtime.ReadMemStats(&after)
		res.layer["herad.alloc_mb_per_plan.n1024"] = float64(after.TotalAlloc-before.TotalAlloc) / reps / (1 << 20)
		break
	}
}

// checkPlans validates every completed request outside the timed window:
// each solution is valid and identical to the first solve of the same
// entry; HeRAD's period is no worse than any heuristic's on the same
// (chain, R); ε results are within (1+ε) of the exact period; and HeRAD
// matches brute force on a small seeded sample.
func checkPlans(st *planMixState, recs []planRecord, res *result) {
	first := map[int]float64{}
	heradBest := map[int]float64{}
	heur := map[int][]float64{}
	exact := map[int]float64{}
	eps := map[int][]float64{}
	for _, r := range recs {
		res.attempted++
		e := st.entries[r.entry]
		if r.res.Err != nil {
			res.fail(1, "%s on %v: %v", e.req.Scheduler.Name(), e.req.Resources, r.res.Err)
			continue
		}
		if err := r.res.Solution.Validate(e.req.Chain, e.req.Resources); err != nil {
			res.fail(1, "%s on %v: invalid solution: %v", e.req.Scheduler.Name(), e.req.Resources, err)
			continue
		}
		p := r.res.Solution.Period(e.req.Chain)
		if p0, ok := first[r.entry]; ok && p0 != p {
			res.fail(1, "%s on %v: period %g, earlier solve gave %g", e.req.Scheduler.Name(), e.req.Resources, p, p0)
			continue
		}
		first[r.entry] = p
		switch {
		case e.class == classLongExact:
			exact[e.pair] = p
		case e.class == classLongEps:
			eps[e.pair] = append(eps[e.pair], p)
		case e.req.Scheduler.Name() == "HeRAD":
			heradBest[e.pair] = p
		default:
			heur[e.pair] = append(heur[e.pair], p)
		}
	}
	for pair, hp := range heradBest {
		for _, p := range heur[pair] {
			res.check(hp <= p*(1+1e-9), "HeRAD period %g above a heuristic's %g on pair %d", hp, p, pair)
		}
	}
	for pair, ps := range eps {
		if ex, ok := exact[pair]; ok {
			for _, p := range ps {
				res.check(p <= ex*(1+longEpsilon)*(1+1e-9), "ε=%g period %g above (1+ε)·%g", longEpsilon, p, ex)
			}
		}
	}
	herad := strategy.MustParse("herad")
	for _, c := range st.small {
		r := core.Res(3, 3)
		res.attempted++
		hp := strategy.PlanBatch([]strategy.Request{{Chain: c, Resources: r, Scheduler: herad}}, 1)[0].Period
		bp := brute.MinPeriod(c, r)
		res.check(!math.IsInf(bp, 1) && closeRel(hp, bp, 1e-9), "HeRAD period %g, brute force %g on n=%d", hp, bp, c.Len())
	}
}
