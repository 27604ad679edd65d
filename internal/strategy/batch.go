package strategy

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ampsched/internal/core"
	"ampsched/internal/obs"
	"ampsched/internal/obs/flight"
	"ampsched/internal/trace"
)

// Request is one unit of batch planning work: schedule Chain on Resources
// with Scheduler under Options. Label is an optional caller tag carried
// through to the Result untouched.
type Request struct {
	Chain     *core.Chain
	Resources core.Resources
	Scheduler Scheduler
	Options   Options
	Label     string
}

// Result is the outcome of one Request. Err is set when the request was
// malformed (nil chain or scheduler) or the strategy found no schedule; in
// both cases Solution is empty and Period is +Inf.
type Result struct {
	Request  Request
	Solution core.Solution
	Period   float64
	Elapsed  time.Duration
	Err      error
}

// planMode classifies how PlanBatch resolves one request: by running the
// strategy (solve), by reading a solution cached by a previous batch
// (hit), by solving once on behalf of later in-batch duplicates (leader),
// or by copying an in-batch leader's result (follower).
type planMode uint8

const (
	modeSolve planMode = iota
	modeHit
	modeLeader
	modeFollower
)

// PlanBatch schedules every request concurrently on a bounded worker pool
// and returns one Result per request, in request order. Each strategy is
// deterministic, so a batch result is byte-for-byte the result of running
// the requests serially — only the wall-clock changes.
//
// Requests whose Options carry a metrics registry report their strategy
// series into it as usual, and PlanBatch aggregates batch-level series
// under "planbatch." (batches, requests, errors, workers, per-request
// latency, cache hits/misses). Counter updates are atomic and
// order-independent, so the aggregation never perturbs the deterministic
// result ordering — nor, for deterministic workloads, the exported
// counter values.
//
// Requests whose Options carry a Cache are first classified serially, in
// request order: a key already in the cache is a hit, the first in-batch
// occurrence of a new key is its leader, and later occurrences are
// followers. Only leaders (and uncached requests) reach the worker pool;
// hits and followers are resolved from the stored solution afterwards,
// again in request order, so cache resolution — like the journal — is
// independent of pool interleaving.
//
// workers bounds the pool; workers ≤ 0 uses GOMAXPROCS. The pool never
// exceeds the number of requests it has to solve.
func PlanBatch(reqs []Request, workers int) []Result {
	out := make([]Result, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	// Batch-level summary, recorded once per batch on the first request
	// that carries a registry (requests usually share one).
	for i := range reqs {
		if m := reqs[i].Options.Metrics.Sub("planbatch"); m != nil {
			m.Counter("batches").Inc()
			m.Gauge("workers").Set(float64(workers))
			break
		}
	}
	// Journal spans are opened here, serially and in request order, before
	// any worker runs. Each worker then appends only under its own request
	// span, so the exported journal is byte-for-byte identical no matter
	// how the pool interleaves the requests.
	spans := make([]*trace.Span, len(reqs))
	for i := range reqs {
		if t := reqs[i].Options.Trace; t != nil {
			sp := t.Begin("request").Int("index", i)
			if reqs[i].Label != "" {
				sp.Str("label", reqs[i].Label)
			}
			if reqs[i].Scheduler != nil {
				sp.Str("scheduler", reqs[i].Scheduler.Name())
			}
			spans[i] = sp
		}
	}
	// Cache pre-pass: serial and in request order, so hit/miss counters
	// and leader election are deterministic for a given request sequence.
	mode := make([]planMode, len(reqs))
	keys := make([]cacheKey, len(reqs))
	leaderOf := make([]int, len(reqs))
	cached := make([]core.Solution, len(reqs))
	leaders := map[cacheKey]int{}
	for i := range reqs {
		k, ok := requestKey(reqs[i])
		if !ok {
			continue
		}
		keys[i] = k
		cache := reqs[i].Options.Cache
		m := reqs[i].Options.Metrics.Sub("planbatch")
		var hits, misses *obs.Counter
		if m != nil {
			hits = m.Counter("cache.hits") // registered even while zero
			misses = m.Counter("cache.misses")
		}
		if s, hit := cache.get(k); hit {
			mode[i] = modeHit
			cached[i] = s
			cache.hits.Add(1)
			hits.Inc()
		} else if j, dup := leaders[k]; dup {
			mode[i] = modeFollower
			leaderOf[i] = j
			cache.hits.Add(1) // in-batch duplicate: solved once, reused
			hits.Inc()
		} else {
			mode[i] = modeLeader
			leaders[k] = i
			cache.misses.Add(1)
			misses.Inc()
		}
	}
	solve := make([]int, 0, len(reqs))
	for i := range reqs {
		if mode[i] == modeSolve || mode[i] == modeLeader {
			solve = append(solve, i)
		}
	}
	if workers > len(solve) && len(solve) > 0 {
		workers = len(solve)
	}
	if workers == 1 || len(solve) == 0 {
		for i := range reqs {
			switch mode[i] {
			case modeHit:
				out[i] = resolveCached(reqs[i], spans[i], cached[i], -1)
			case modeFollower:
				out[i] = resolveCached(reqs[i], spans[i], out[leaderOf[i]].Solution, leaderOf[i])
			default:
				out[i] = plan(reqs[i], spans[i])
				if mode[i] == modeLeader {
					reqs[i].Options.Cache.put(keys[i], out[i].Solution)
				}
			}
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = plan(reqs[i], spans[i])
			}
		}()
	}
	for _, i := range solve {
		idx <- i
	}
	close(idx)
	wg.Wait()
	// Publish leader solutions, then resolve hits and followers — serial
	// and in request order, like the pre-pass.
	for _, i := range solve {
		if mode[i] == modeLeader {
			reqs[i].Options.Cache.put(keys[i], out[i].Solution)
		}
	}
	for i := range reqs {
		switch mode[i] {
		case modeHit:
			out[i] = resolveCached(reqs[i], spans[i], cached[i], -1)
		case modeFollower:
			out[i] = resolveCached(reqs[i], spans[i], out[leaderOf[i]].Solution, leaderOf[i])
		}
	}
	return out
}

// PlanAll runs every non-hidden registered strategy over one (chain,
// resources) pair — the batched form of a "-strategy all" sweep.
func PlanAll(c *core.Chain, r core.Resources, opts Options, workers int) []Result {
	all := All()
	reqs := make([]Request, len(all))
	for i, s := range all {
		reqs[i] = Request{Chain: c, Resources: r, Scheduler: s, Options: opts, Label: s.Name()}
	}
	return PlanBatch(reqs, workers)
}

// plan runs one request. sp, when non-nil, is the request's pre-opened
// journal span: the strategy journals under it (via the Options value copy)
// and plan appends one deterministic "result" event — period on success,
// the error string on failure, never the wall-clock Elapsed.
// plan operates on its own Request copy, so the caller's slice is never
// mutated.
func plan(req Request, sp *trace.Span) Result {
	req.Options.Trace = sp
	res := Result{Request: req}
	switch {
	case req.Scheduler == nil:
		res.Err = errors.New("strategy: request has no scheduler")
		res.Period = res.Solution.Period(nil)
	case req.Chain == nil:
		res.Err = fmt.Errorf("strategy: %s request has no chain", req.Scheduler.Name())
		res.Period = res.Solution.Period(nil)
	default:
		if err := CheckTypes(req.Scheduler, req.Chain, req.Resources); err != nil {
			// A type-table mismatch (k≠2 resources on a two-type strategy, or
			// chain/platform disagreement) fails loudly instead of letting the
			// strategy silently misplan.
			res.Err = err
			res.Period = res.Solution.Period(nil)
			break
		}
		start := time.Now()
		res.Solution = req.Scheduler.Schedule(req.Chain, req.Resources, req.Options)
		res.Elapsed = time.Since(start)
		res.Period = res.Solution.Period(req.Chain)
		if res.Solution.IsEmpty() {
			res.Err = fmt.Errorf("strategy: %s found no schedule for R=%v",
				req.Scheduler.Name(), req.Resources)
		}
	}
	if sp != nil {
		if res.Err != nil {
			sp.Event("result").Str("error", res.Err.Error())
		} else {
			sp.Event("result").F64("period", res.Period).Int("stages", len(res.Solution.Stages))
		}
	}
	if m := req.Options.Metrics.Sub("planbatch"); m != nil {
		m.Counter("requests").Inc()
		errs := m.Counter("errors") // registered even while zero
		if res.Err != nil {
			errs.Inc()
		}
		m.Histogram("request_us", obs.DurationBucketsUs).
			Observe(float64(res.Elapsed.Nanoseconds()) / 1e3)
	}
	recordPlanFlight(req, res)
	return res
}

// recordPlanFlight appends one CodePlan flight event for a resolved
// request: A is the emitted period (+Inf on failure), B the stage count,
// Aux the strategy name. No-op without a recorder.
func recordPlanFlight(req Request, res Result) {
	fr := req.Options.Flight
	if fr == nil {
		return
	}
	var aux uint32
	if req.Scheduler != nil {
		aux = fr.Intern(req.Scheduler.Name())
	}
	fr.Record(flight.Event{
		Code:  flight.CodePlan,
		Stage: -1,
		Aux:   aux,
		A:     res.Period,
		B:     float64(len(res.Solution.Stages)),
	})
}

// resolveCached builds the Result of a cache-served request from the
// stored solution without invoking the strategy. leader is the in-batch
// index that solved this key, or -1 when the solution came from a
// previous batch. The journal gains a "cache_hit" event in place of the
// solver's decision trail, followed by the same deterministic "result"
// event plan would have appended; the batch-level request counters are
// maintained identically, so requests == hits + misses-side solves holds
// for every registry.
func resolveCached(req Request, sp *trace.Span, sol core.Solution, leader int) Result {
	start := time.Now()
	res := Result{Request: req, Solution: cloneSolution(sol)}
	res.Period = res.Solution.Period(req.Chain)
	if res.Solution.IsEmpty() {
		res.Err = fmt.Errorf("strategy: %s found no schedule for R=%v",
			req.Scheduler.Name(), req.Resources)
	}
	res.Elapsed = time.Since(start)
	if sp != nil {
		ev := sp.Event("cache_hit")
		if leader >= 0 {
			ev.Int("leader_index", leader)
		}
		if res.Err != nil {
			sp.Event("result").Str("error", res.Err.Error())
		} else {
			sp.Event("result").F64("period", res.Period).Int("stages", len(res.Solution.Stages))
		}
	}
	if m := req.Options.Metrics.Sub("planbatch"); m != nil {
		m.Counter("requests").Inc()
		m.Counter("errors") // registered even while zero
		if res.Err != nil {
			m.Counter("errors").Inc()
		}
		m.Histogram("request_us", obs.DurationBucketsUs).
			Observe(float64(res.Elapsed.Nanoseconds()) / 1e3)
	}
	recordPlanFlight(req, res)
	return res
}
