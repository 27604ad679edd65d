package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/stats"
	"ampsched/internal/strategy"
	"ampsched/internal/streampu"
)

// stream-finegrain: a chaingen chain of benchmark-owned tasks, each
// doing deterministic integer work in proportion to its model weight,
// planned by HeRAD on (1B,1L). A task folds Weight[Big] units of work
// into the frame's checksum and pads a little core with the remaining
// Weight[Little]−Weight[Big] units, so the modeled slowdown is realised
// on homogeneous silicon while the checksum does not depend on the core
// type. Work per unit is scaled so the planned bottleneck stage costs
// fgBottleneckIters per frame. The chain is the same for every run
// (fgChainSeed), because how evenly a chain splits into two stages moved
// the frame rate by ~10% between chains; --seed draws the frames' input
// words.
const (
	fgChainSeed       = 1
	fgTasks           = 16
	fgBottleneckIters = 2000
	fgWarmFrames      = 20_000
	// fgCheckFrames is how many leading frames of every phase are checked
	// against a streampu.RunChain run of the same chain made in set-up.
	fgCheckFrames = 4096
)

// churnSink keeps the calibration's result live so the compiler cannot
// drop the timed work; only set-up, on one goroutine, writes it.
var churnSink uint64

type fgPayload struct {
	in, acc, pad uint64
}

// churn is the unit of work: xorshift64 steps, each depending on the last.
func churn(x uint64, iters int) uint64 {
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// frameInput derives frame seq's input word from the run's seed.
func frameInput(seed int64, seq uint64) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + seq + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func fgPayloadOf(f *streampu.Frame) *fgPayload {
	if f.Data == nil {
		f.Data = &fgPayload{}
	}
	return f.Data.(*fgPayload)
}

// fgChainTasks builds the runnable tasks of chain c at itersPerUnit.
func fgChainTasks(c *core.Chain, itersPerUnit float64) []streampu.Task {
	tasks := make([]streampu.Task, c.Len())
	for i := range tasks {
		t := c.Task(i)
		work := int(math.Round(t.Weight[core.Big] * itersPerUnit))
		pad := make([]int, len(t.Weight))
		for v, w := range t.Weight {
			pad[v] = max(int(math.Round((w-t.Weight[core.Big])*itersPerUnit)), 0)
		}
		salt := uint64(i+1) * 0xD6E8FEB86659FD93
		tasks[i] = &streampu.FuncTask{TaskName: t.Name, Rep: t.Replicable, Fn: func(w *streampu.Worker, f *streampu.Frame) error {
			pl := fgPayloadOf(f)
			pl.acc = churn(pl.acc^pl.in^salt, work)
			if n := pad[w.Core]; n > 0 {
				pl.pad = churn(pl.acc, n)
			}
			return nil
		}}
	}
	return tasks
}

func setupFinegrain(cfg config) (any, error) {
	chain := chaingen.Generate(chaingen.Default(fgTasks, 0.5), rand.New(rand.NewSource(fgChainSeed)))
	plan := strategy.PlanBatch([]strategy.Request{{Chain: chain, Resources: core.Res(1, 1), Scheduler: strategy.MustParse("herad")}}, 1)[0]
	if plan.Err != nil {
		return nil, plan.Err
	}
	ipu := fgBottleneckIters / plan.Solution.Period(chain)
	job := &streamJob{layer: "task", tasks: fgChainTasks(chain, ipu), chain: chain, sol: plan.Solution}
	seed := cfg.seed
	job.fill = func(f *streampu.Frame) {
		pl := fgPayloadOf(f)
		*pl = fgPayload{in: frameInput(seed, f.Seq)}
	}
	// Reference checksums from the sequential runtime.
	ref := make([]uint64, fgCheckFrames)
	refTasks := append([]streampu.Task(nil), job.tasks...)
	last := len(refTasks) - 1
	inner := refTasks[last]
	refTasks[last] = &streampu.FuncTask{TaskName: inner.Name(), Rep: inner.Replicable(), Fn: func(w *streampu.Worker, f *streampu.Frame) error {
		err := inner.Process(w, f)
		ref[f.Seq] = fgPayloadOf(f).acc
		return err
	}}
	if _, err := streampu.RunChain(refTasks, fgCheckFrames, job.fill); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	job.verify = func(f *streampu.Frame) bool {
		return f.Seq >= uint64(len(ref)) || fgPayloadOf(f).acc == ref[f.Seq]
	}
	// µs per model unit, for the gap ledger: the median of a few timed
	// stretches of the same work.
	var perIter []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		churnSink ^= churn(uint64(i+1), 200_000)
		perIter = append(perIter, float64(time.Since(t0))/1e3/200_000) // µs
	}
	job.unitUs = stats.Median(perIter) * ipu
	return job, nil
}

func warmFinegrain(state any) error { return warmStream(state.(*streamJob), fgWarmFrames) }

func runFinegrain(cfg config, state any, res *result) error {
	job := state.(*streamJob)
	runStream(cfg, job, 0, res)
	res.name("work_us_per_frame_planned", job.sol.Period(job.chain)*job.unitUs, "us")
	for i, stg := range job.sol.Stages {
		res.name(fmt.Sprintf("schedule_stage%d_%s", i, stg), float64(stg.Cores), "cores")
	}
	return nil
}
