package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"ampsched/internal/core"
	"ampsched/internal/desim"
	"ampsched/internal/stats"
	"ampsched/internal/streampu"
)

// The streaming workloads share this harness: a planned chain of
// streampu tasks runs closed loop (the source runs flat out and the
// bounded queues push back on it) for the frame rate, then, on a
// workload with an offered rate, open loop (the source is paced at that
// rate inside the src callback) for the source-to-sink latency, timed
// from each frame's due time; the run alternates the two in blocks
// (streamBlockSeconds). A workload without an offered rate takes its
// latency from the closed loop, timed from the frame's release by the
// source. The untraced run wraps only the sink task. The traced run adds
// two closed loops: one with only the program's own sink
// (streampu.Sampler) attached, which sets the overhead ratio and the
// stage occupancy, and one that wraps and times every task.

// streamQueueCap is the streampu queue capacity, also given to desim so
// the prediction models the same buffers. It is 8, not the runtime's
// default of 2: on a host whose sleeps last at least ~1 ms, a stage that
// waits more than a few tens of µs for a frame falls into the runtime's
// backoff sleep, and with two slots the other stage then blocks on a full
// queue; the frame rate's run-to-run spread was 0.10–0.14 with 2 and
// 0.04–0.06 with 8 in runs with little stolen time. Every frame still
// crosses a ring and the frame pool.
const streamQueueCap = 8

// streamJob is one planned streaming chain.
type streamJob struct {
	layer  string // span layer of the tasks ("dvbs2" or "task")
	tasks  []streampu.Task
	chain  *core.Chain // the scheduling model the plan was made on
	sol    core.Solution
	unitUs float64 // µs per model weight unit
	// fill prepares frame seq's payload before the first task (may be nil).
	fill func(f *streampu.Frame)
	// verify checks one frame at the sink; false counts a failed output.
	verify func(f *streampu.Frame) bool
	// fpsEstimate sizes the closed-loop phases (frames = estimate × s).
	fpsEstimate float64
}

// sinkSlot is one sink replica's view of a run; only that replica's
// worker writes it, and Run returning orders the writes before the reads.
type sinkSlot struct {
	count    int64
	next     uint64 // next expected Seq on this replica
	badOrder int64
	bad      int64 // frames verify rejected
	_        [64]byte
}

// rateWindows: a closed-loop rate is the median over this many windows
// of equal frame count, past the first tenth of the run, so a stall of
// the host (a descheduled virtual CPU) does not set a run's figure.
const rateWindows = 20

// phaseMode is what a pipeline run attaches to the chain.
type phaseMode int

const (
	// plain wraps only the sink task, for the frame count and latency.
	plain phaseMode = iota
	// sinks is plain with the program's own streampu.Sampler attached.
	sinks
	// spanned wraps and times every task and records their spans.
	spanned
	// sequential is plain, run through streampu.RunChain on one worker.
	sequential
)

// latSamples bounds the latency samples a phase keeps: every
// latEvery-th frame is sampled. A run pools the samples of every block,
// and they are memory peak_rss_mb counts: with 50,000 per phase the
// pooled samples of stream-finegrain took several MB.
const latSamples = 4096

// probe is the per-Run measurement state shared by the task wrappers.
type probe struct {
	job    *streamJob
	epoch  time.Time
	traced bool
	slots  []sinkSlot
	// marks[k] is when frame k·markEvery left the chain (ns since epoch).
	markEvery uint64
	marks     []int64
	// Latency, in plain phases: sent[k] is when frame k·latEvery was
	// released by the source, or in the open loop when it was due, and
	// lat[k] its sink time less sent[k] (ns since epoch). In the open loop
	// frame Seq is due at start + Seq·interval and late[k] is how long
	// after its due time the source released frame k·latEvery.
	start, interval float64
	latEvery        uint64
	sent, lat, late []int64
	// traced only:
	stageOf     []int
	first, last []bool
	entry, exit [][]int64 // [stage][Seq] ns since epoch, Seq < stampCap
	spans       *spanLog
	runSpan     int64
	mu          sync.Mutex
	insts       []*probed
}

// stampCap bounds the per-frame stage stamps a traced phase keeps.
const stampCap = 300_000

// sampleCap bounds the per-task service samples one task instance keeps.
const sampleCap = 50_000

// probed wraps a program task: it keeps the task's Replicable and Clone
// behaviour, times Process in the traced run, and takes the sink stamp
// when it wraps the chain's last task.
type probed struct {
	inner streampu.Task
	idx   int
	p     *probe
	durs  []float64 // µs
	sum   float64   // µs over every frame
	n     int64
	iters int64 // LDPC iterations seen at the sink (dvbs2 only)
}

func (t *probed) Name() string     { return t.inner.Name() }
func (t *probed) Replicable() bool { return t.inner.Replicable() }

// Clone gives each replica its own wrapper and, when the wrapped task
// has per-replica state, its own task instance; a task without Clone
// stays shared, as it would be unwrapped.
func (t *probed) Clone() streampu.Task {
	inner := t.inner
	if c, ok := inner.(streampu.Cloner); ok {
		inner = c.Clone()
	}
	return t.p.wrap(inner, t.idx)
}

func (p *probe) wrap(t streampu.Task, idx int) *probed {
	w := &probed{inner: t, idx: idx, p: p}
	if p.traced {
		w.durs = make([]float64, 0, 1024)
	}
	p.mu.Lock()
	p.insts = append(p.insts, w)
	p.mu.Unlock()
	return w
}

func (t *probed) Process(w *streampu.Worker, f *streampu.Frame) error {
	p := t.p
	if !p.traced {
		err := t.inner.Process(w, f)
		p.sinkStamp(w, f, time.Since(p.epoch).Nanoseconds())
		return err
	}
	t0 := time.Now()
	err := t.inner.Process(w, f)
	t1 := time.Now()
	us := float64(t1.Sub(t0)) / 1e3
	t.sum += us
	t.n++
	if len(t.durs) < sampleCap {
		t.durs = append(t.durs, us)
	}
	p.spans.record(p.runSpan, int64(f.Seq)+1, p.job.layer, t.inner.Name(), t0, t1)
	if f.Seq < stampCap {
		s := p.stageOf[t.idx]
		if p.first[t.idx] {
			p.entry[s][f.Seq] = t0.Sub(p.epoch).Nanoseconds()
		}
		if p.last[t.idx] {
			p.exit[s][f.Seq] = t1.Sub(p.epoch).Nanoseconds()
		}
	}
	if t.idx == len(p.job.tasks)-1 {
		if it, ok := ldpcIters(f); ok {
			t.iters += int64(it)
		}
		p.sinkStamp(w, f, t1.Sub(p.epoch).Nanoseconds())
	}
	return err
}

// sinkStamp accounts one frame leaving the chain: order, verification,
// the rate window and, in the open loop, its latency.
func (p *probe) sinkStamp(w *streampu.Worker, f *streampu.Frame, now int64) {
	s := &p.slots[w.ID]
	s.count++
	if f.Seq != s.next {
		s.badOrder++
	}
	s.next = f.Seq + uint64(len(p.slots))
	if p.job.verify != nil && !p.job.verify(f) {
		s.bad++
	}
	if f.Seq%p.markEvery == 0 {
		p.marks[f.Seq/p.markEvery] = now
	}
	if p.lat != nil && f.Seq%p.latEvery == 0 {
		k := f.Seq / p.latEvery
		p.lat[k] = now - p.sent[k]
	}
}

// due is when the open-loop source releases frame seq (ns since epoch).
func (p *probe) due(seq uint64) int64 {
	return int64(p.start + float64(seq)*p.interval)
}

// phaseResult is what one pipeline run measured.
type phaseResult struct {
	frames int
	fps    float64   // steady-state sink rate (median over windows)
	rates  []float64 // the window rates fps is the median of
	stats  streampu.Stats
	probe  *probe
	samp   []streampu.StageSample
}

// runPhase pushes frames frames through the job's pipeline in the given
// mode. offered > 0 paces the source at that rate (open loop).
func runPhase(job *streamJob, frames int, offered float64, mode phaseMode, spans *spanLog, res *result) phaseResult {
	traced := mode == spanned
	p := &probe{job: job, epoch: time.Now(), traced: traced, spans: spans}
	p.markEvery = uint64(max(frames/(rateWindows+rateWindows/10+1), 1))
	p.marks = make([]int64, uint64(frames)/p.markEvery+1)
	sol := job.sol
	if mode == sequential {
		sol = core.Solution{Stages: []core.Stage{{Start: 0, End: len(job.tasks) - 1, Cores: 1, Type: core.Big}}}
	}
	lastStage := sol.Stages[len(sol.Stages)-1]
	p.slots = make([]sinkSlot, lastStage.Cores)
	for i := range p.slots {
		p.slots[i].next = uint64(i)
	}
	tasks := make([]streampu.Task, len(job.tasks))
	copy(tasks, job.tasks)
	if traced {
		n := min(frames, stampCap)
		for si, st := range sol.Stages {
			for ti := st.Start; ti <= st.End; ti++ {
				p.stageOf = append(p.stageOf, si)
				p.first = append(p.first, ti == st.Start)
				p.last = append(p.last, ti == st.End)
			}
			p.entry = append(p.entry, make([]int64, n))
			p.exit = append(p.exit, make([]int64, n))
		}
		for i := range tasks {
			tasks[i] = p.wrap(job.tasks[i], i)
		}
	} else {
		last := len(tasks) - 1
		tasks[last] = p.wrap(job.tasks[last], last)
	}
	src := job.fill
	if mode == plain {
		p.latEvery = uint64(max(frames/latSamples, 1))
		p.lat = make([]int64, uint64(frames)/p.latEvery+1)
		p.sent = make([]int64, len(p.lat))
		if offered > 0 {
			p.late = make([]int64, len(p.lat))
			p.interval = float64(time.Second) / offered
			p.start = float64(time.Since(p.epoch) + 2*time.Millisecond)
		}
		fill := job.fill
		src = func(f *streampu.Frame) {
			var due time.Duration
			if offered > 0 {
				due = time.Duration(p.due(f.Seq))
				// Sleeps on the hosts this runs on overshoot by up to
				// about 1.5 ms, so the source sleeps only that far ahead
				// of the due time and spins the rest.
				if wait := due - time.Since(p.epoch); wait > 2*time.Millisecond {
					time.Sleep(wait - 1500*time.Microsecond)
				}
				for time.Since(p.epoch) < due {
				}
			}
			if f.Seq%p.latEvery == 0 {
				k := f.Seq / p.latEvery
				now := time.Since(p.epoch)
				if offered > 0 {
					p.sent[k], p.late[k] = int64(due), int64(now-due)
				} else {
					p.sent[k] = int64(now)
				}
			}
			if fill != nil {
				fill(f)
			}
		}
	}
	var samp *streampu.Sampler
	opts := streampu.Options{QueueCap: streamQueueCap}
	if mode == sinks {
		samp = streampu.NewSampler(nil)
		opts.Sampler = samp
	}
	out := phaseResult{frames: frames, probe: p}
	t0 := time.Now()
	var err error
	if mode == sequential {
		out.stats, err = streampu.RunChain(tasks, frames, src)
	} else {
		var pipe *streampu.Pipeline
		pipe, err = streampu.New(tasks, sol, opts)
		t1 := time.Now()
		spans.record(0, 0, "streampu", "New", t0, t1)
		if err == nil {
			p.runSpan = spans.reserve()
			out.stats, err = pipe.Run(frames, src)
		}
	}
	if samp != nil {
		out.samp = samp.Sample(time.Now())
	}
	if mode != sequential {
		spans.recordID(p.runSpan, 0, 0, "streampu", "Run", t0, time.Now())
	}
	if err != nil {
		res.fail(int64(frames), "pipeline run: %v", err)
		return out
	}
	var count int64
	for i := range p.slots {
		s := &p.slots[i]
		count += s.count
		res.fail(s.badOrder, "sink replica %d saw %d frames out of order", i, s.badOrder)
		res.fail(s.bad, "sink replica %d: %d frames failed verification", i, s.bad)
	}
	res.attempted += int64(frames)
	res.fail(int64(frames)-count, "%d of %d frames reached the sink", count, frames)
	res.fail(int64(out.stats.Errored), "%d frames finished with an error", out.stats.Errored)
	var rates []float64
	for k := len(p.marks) / 10; k+1 < len(p.marks); k++ {
		if d := p.marks[k+1] - p.marks[k]; d > 0 && p.marks[k] > 0 {
			rates = append(rates, float64(p.markEvery)/(float64(d)/1e9))
		}
	}
	out.fps = stats.Median(rates)
	out.rates = rates
	return out
}

// closedFrames sizes a closed-loop phase of about sec seconds.
func (job *streamJob) closedFrames(sec float64) int {
	return max(int(job.fpsEstimate*sec), 200)
}

// warmStream runs the job's warm-up frames, which also size its
// closed-loop phases.
func warmStream(job *streamJob, frames int) error {
	warm := newResult()
	w := runPhase(job, frames, 0, plain, nil, warm)
	if warm.failed > 0 || w.fps <= 0 {
		return fmt.Errorf("warm-up run failed: %v", warm.problems)
	}
	job.fpsEstimate = w.fps
	return nil
}

// streamBlockSeconds is the length of one block of a streaming run: a
// closed-loop phase then, with an offered rate, an open-loop phase. The run is a sequence of
// such blocks and each metric pools every block, so both metrics sample
// the whole run and a slow spell of the host falls on both alike. With
// one closed phase followed by one open phase, the spread of the frame
// rate over eight seeds under a bursty competing load was 0.20; with six
// blocks in the same run length it was 0.03 (perfbench/README.md).
const streamBlockSeconds = 2

// runStream is the measured part of both streaming workloads. With
// offered = 0 the run has no open loop and its latency is the closed
// loop's. It returns the traced phase (zero unless cfg.trace).
func runStream(cfg config, job *streamJob, offered float64, res *result) (traced phaseResult) {
	// Closed loop gets 70% of each block and open loop 30%: the frame
	// rate drifts with the host over seconds, so its phases get the
	// longer share; the open loops still collect over a thousand frames.
	blocks := max(int(math.Round(cfg.seconds/streamBlockSeconds)), 1)
	closedShare := 1.0
	if offered > 0 {
		closedShare = 0.7
	}
	closedSec := closedShare * cfg.seconds / float64(blocks)
	openFrames := max(int(offered*(1-closedShare)*cfg.seconds/float64(blocks)), 200)
	if cfg.trace {
		closedSec /= 3
	}
	var rates, closedLat, lat, late []float64
	var closedCount, openCount int
	var steal stolen
	for b := 0; b < blocks; b++ {
		var closed phaseResult
		steal.during(func() { closed = runPhase(job, job.closedFrames(closedSec), 0, plain, nil, res) })
		rates = append(rates, closed.rates...)
		closedCount += closed.frames
		closedLat = appendMs(closedLat, closed.probe.lat)
		if offered > 0 {
			open := runPhase(job, openFrames, offered, plain, nil, res)
			openCount += open.frames
			lat = appendMs(lat, open.probe.lat)
			late = appendMs(late, open.probe.late)
		}
	}
	if offered == 0 {
		lat = closedLat
	}
	raw := stats.Median(rates)
	fps := steal.granted(raw)
	p25, p50, p99 := quantile(lat, 0.25), quantile(lat, 0.5), quantile(lat, 0.99)
	res.e2e["throughput_per_s"] = fps
	res.e2e["latency_ms_p25"] = p25
	res.name("fps", fps, "frames/s")
	res.name("fps_raw", raw, "frames/s")
	res.name("steal_share_closed", steal.share(), "ratio")
	res.name("frame_ms_p25", p25, "ms")
	res.name("frame_ms_p50", p50, "ms")
	res.name("frame_ms_p99", p99, "ms")
	res.name("closed_frame_ms_p25", quantile(closedLat, 0.25), "ms")
	res.name("closed_frame_ms_p50", quantile(closedLat, 0.5), "ms")
	res.name("blocks", float64(blocks), "count")
	res.name("closed_loop_frames", float64(closedCount), "count")
	res.name("open_loop_frames", float64(openCount), "count")
	res.name("open_loop_offered_fps", offered, "frames/s")
	res.name("schedule_stages", float64(len(job.sol.Stages)), "count")

	if cfg.trace {
		sec := closedSec * float64(blocks)
		observed := runPhase(job, job.closedFrames(sec), 0, sinks, nil, res)
		traced = runPhase(job, job.closedFrames(sec), 0, spanned, cfg.spans, res)
		if offered > 0 {
			res.layer["source.late_ms_p99"] = quantile(late, 0.99)
		}
		res.layer["tail.latency_ms_p99"] = p99
		res.layer["trace.overhead_ratio"] = ratio(observed.fps, raw)
		streamLayers(cfg, job, raw, observed, traced, res)
	}
	return traced
}

// appendMs appends ns samples to dst in ms.
func appendMs(dst []float64, ns []int64) []float64 {
	for _, v := range ns {
		dst = append(dst, float64(v)/1e6)
	}
	return dst
}

// taskSamples returns each task's mean service time (µs) and its samples,
// merged over the replicas of a traced phase.
func taskSamples(p *probe, n int) (means []float64, samples [][]float64) {
	sums := make([]float64, n)
	counts := make([]int64, n)
	samples = make([][]float64, n)
	for _, w := range p.insts {
		sums[w.idx] += w.sum
		counts[w.idx] += w.n
		samples[w.idx] = append(samples[w.idx], w.durs...)
	}
	means = make([]float64, n)
	for i := range means {
		means[i] = ratio(sums[i], float64(counts[i]))
	}
	return means, samples
}

// streamLayers fills the streampu metrics and the gap ledger: planned
// period (model) → desim period (queueing) → measured period (runtime),
// beside the host-capacity bound and the single-threaded baseline.
// Stage occupancy and stalls come from the Sampler of the observed
// phase, service and handoff times from the stamps of the traced one.
func streamLayers(cfg config, job *streamJob, fps float64, observed, traced phaseResult, res *result) {
	p := traced.probe
	n := min(traced.frames, stampCap)
	// A schedule with fewer stages reports 0 for the stages it lacks.
	for s := 0; s < 2; s++ {
		res.layer[fmt.Sprintf("streampu.stage_service_us_p50.s%d", s)] = 0
		res.layer[fmt.Sprintf("streampu.stage_busy_ratio.s%d", s)] = 0
	}
	res.layer["streampu.handoff_us_p50"] = 0
	res.layer["streampu.handoff_us_p99"] = 0
	var handoff []float64
	for s := range job.sol.Stages {
		svc := make([]float64, 0, n)
		for seq := 0; seq < n; seq++ {
			svc = append(svc, float64(p.exit[s][seq]-p.entry[s][seq])/1e3)
			if s+1 < len(job.sol.Stages) {
				handoff = append(handoff, float64(p.entry[s+1][seq]-p.exit[s][seq])/1e3)
			}
		}
		if s < 2 {
			res.layer[fmt.Sprintf("streampu.stage_service_us_p50.s%d", s)] = quantile(svc, 0.5)
		}
	}
	if len(handoff) > 0 {
		res.layer["streampu.handoff_us_p50"] = quantile(handoff, 0.5)
		res.layer["streampu.handoff_us_p99"] = quantile(handoff, 0.99)
	}
	var stalls int64
	for _, s := range observed.samp {
		if s.Stage < 2 {
			res.layer[fmt.Sprintf("streampu.stage_busy_ratio.s%d", s.Stage)] = s.Occupancy
		}
		stalls += s.Stalls
	}
	res.layer["streampu.stalls_per_kframe"] = ratio(float64(stalls)*1000, float64(observed.frames))

	means, _ := taskSamples(p, len(job.tasks))
	var work float64
	for _, m := range means {
		work += m
	}
	workers := 0
	for _, st := range job.sol.Stages {
		workers += st.Cores
	}
	planned := job.sol.Period(job.chain) * job.unitUs
	t0 := time.Now()
	sim, err := desim.Simulate(job.chain, job.sol, desim.Config{Frames: 4000, QueueCap: streamQueueCap})
	cfg.spans.record(0, 0, "desim", "Simulate", t0, time.Now())
	if err != nil {
		res.fail(1, "desim: %v", err)
		return
	}
	desimUs := sim.Period * job.unitUs
	measured := ratio(1e6, fps)
	res.layer["gap.planned_period_us"] = planned
	res.layer["gap.desim_period_us"] = desimUs
	res.layer["gap.measured_period_us"] = measured
	res.layer["gap.host_bound_period_us"] = work / float64(min(workers, runtime.NumCPU()))
	res.layer["gap.desim_over_planned"] = ratio(desimUs, planned)
	res.layer["gap.measured_over_desim"] = ratio(measured, desimUs)

	seq := runPhase(job, max(int(job.fpsEstimate*cfg.seconds/8), 200), 0, sequential, nil, res)
	res.layer["streampu.sequential_fps"] = seq.fps
	res.layer["streampu.speedup"] = ratio(fps, seq.fps)
}
