package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"ampsched/internal/core"
	"ampsched/internal/dvbs2"
	"ampsched/internal/stats"
	"ampsched/internal/strategy"
	"ampsched/internal/streampu"
)

// dvbs2-live: the real receiver on dvbs2.Test() frames through
// DefaultChannel() (noise seeded by the run's seed), planned by HeRAD on
// (1B,1L) from the committed profile so every commit runs the same
// schedule. Following experiments.LiveProfile, a little core is modeled
// as the big column × littleFactor.

//go:embed data/dvbs2_profile.json
var committedProfile []byte

const (
	littleFactor = 2.3
	// dvbs2WarmFrames are run before the measured phases: they acquire
	// frame lock and size the closed-loop phase.
	dvbs2WarmFrames = 300
	// driftFloor: profile_drift only compares tasks carrying at least this
	// share of the profiled frame time; a sub-microsecond task's ratio is
	// dominated by the wrapper's two clock reads.
	driftFloor = 0.01
)

// dvbs2Profile is the committed per-task service time of the receiver.
type dvbs2Profile struct {
	Params       string         `json:"params"`
	WarmupFrames int            `json:"warmup_frames"`
	Frames       int            `json:"frames_per_run"`
	Runs         int            `json:"runs"`
	Nproc        int            `json:"nproc"`
	GoVersion    string         `json:"go"`
	Tasks        []profileEntry `json:"tasks"`
}

type profileEntry struct {
	Name   string  `json:"name"`
	Us     float64 `json:"us"`     // median over runs of the mean µs per frame
	Spread float64 `json:"spread"` // (max − min) ÷ median over runs
}

func loadProfile() (dvbs2Profile, error) {
	var p dvbs2Profile
	if err := json.Unmarshal(committedProfile, &p); err != nil {
		return p, fmt.Errorf("committed DVB-S2 profile: %w", err)
	}
	if len(p.Tasks) != 23 {
		return p, fmt.Errorf("committed DVB-S2 profile has %d tasks, want 23", len(p.Tasks))
	}
	return p, nil
}

func newReceiver(seed int64) (*dvbs2.Receiver, error) {
	tx, err := dvbs2.NewTransmitter(dvbs2.Test())
	if err != nil {
		return nil, err
	}
	ch := dvbs2.DefaultChannel()
	ch.Seed = seed
	return dvbs2.NewReceiver(tx, dvbs2.NewTxStream(tx, ch)), nil
}

type dvbs2State struct {
	job     *streamJob
	rx      *dvbs2.Receiver
	profile dvbs2Profile
}

func setupDVBS2(cfg config) (any, error) {
	prof, err := loadProfile()
	if err != nil {
		return nil, err
	}
	rx, err := newReceiver(cfg.seed)
	if err != nil {
		return nil, err
	}
	weights := make([][]float64, len(prof.Tasks))
	for i, t := range prof.Tasks {
		weights[i] = core.Weights(t.Us, t.Us*littleFactor)
	}
	chain, err := rx.ModelChain(weights)
	if err != nil {
		return nil, err
	}
	plan := strategy.PlanBatch([]strategy.Request{{Chain: chain, Resources: core.Res(1, 1), Scheduler: strategy.MustParse("herad")}}, 1)[0]
	if plan.Err != nil {
		return nil, plan.Err
	}
	job := &streamJob{layer: "dvbs2", tasks: rx.Tasks(), chain: chain, sol: plan.Solution, unitUs: 1}
	return &dvbs2State{job: job, rx: rx, profile: prof}, nil
}

func warmDVBS2(state any) error {
	st := state.(*dvbs2State)
	if err := warmStream(st.job, dvbs2WarmFrames); err != nil {
		return err
	}
	if !rxLocked(st.rx) {
		return fmt.Errorf("receiver did not lock within %d warm-up frames", dvbs2WarmFrames)
	}
	return nil
}

// rxLocked reports whether the receiver decoded any frame yet.
func rxLocked(rx *dvbs2.Receiver) bool { return rx.Monitor.Frames.Load() > 0 }

// ldpcIters returns the LDPC iterations a decoded receiver frame took.
func ldpcIters(f *streampu.Frame) (int, bool) {
	pl, ok := f.Data.(*dvbs2.FramePayload)
	if !ok || pl.Skipped {
		return 0, false
	}
	return pl.LDPCIters, true
}

type monitorCounts struct{ frames, skipped, bitErrors, frameErrors int64 }

func monitorNow(rx *dvbs2.Receiver) monitorCounts {
	m := &rx.Monitor
	return monitorCounts{m.Frames.Load(), m.Skipped.Load(), m.BitErrors.Load(), m.FrameErrors.Load()}
}

func runDVBS2(cfg config, state any, res *result) error {
	st := state.(*dvbs2State)
	before := monitorNow(st.rx)
	traced := runStream(cfg, st.job, dvbs2OfferedFPS, res)
	after := monitorNow(st.rx)
	// Every measured frame is past frame lock: a skipped frame means the
	// receiver lost lock, a bit error a wrong decode.
	res.fail(after.skipped-before.skipped, "%d frames skipped after lock", after.skipped-before.skipped)
	res.fail(after.frameErrors-before.frameErrors, "%d frames with bit errors (%d bits)",
		after.frameErrors-before.frameErrors, after.bitErrors-before.bitErrors)
	res.name("decoded_frames", float64(after.frames-before.frames), "count")
	res.name("bit_errors", float64(after.bitErrors-before.bitErrors), "count")
	for i, stg := range st.job.sol.Stages {
		res.name(fmt.Sprintf("schedule_stage%d_%s", i, stg), float64(stg.Cores), "cores")
	}
	if !cfg.trace {
		return nil
	}
	means, samples := taskSamples(traced.probe, len(st.job.tasks))
	var total, drift, iters float64
	for _, t := range st.profile.Tasks {
		total += t.Us
	}
	for i := range means {
		res.layer[fmt.Sprintf("dvbs2.task_us.t%02d", i+1)] = quantile(samples[i], 0.5)
		if c := st.profile.Tasks[i].Us; c >= driftFloor*total {
			drift = math.Max(drift, math.Abs(means[i]/c-1))
		}
	}
	for _, w := range traced.probe.insts {
		iters += float64(w.iters)
	}
	res.layer["dvbs2.profile_drift"] = drift
	res.layer["dvbs2.ldpc_iters_mean"] = ratio(iters, float64(traced.frames))
	return nil
}

// regenProfile re-measures the receiver's task profile: profileWarm
// frames are discarded, then profileRuns sequential runs of profileFrames
// frames each give per-task means, of which the median is kept and the
// spread recorded.
func regenProfile(path string, log io.Writer) error {
	const (
		profileWarm   = 300
		profileRuns   = 7
		profileFrames = 1000
	)
	rx, err := newReceiver(dvbs2.DefaultChannel().Seed)
	if err != nil {
		return err
	}
	tasks := rx.Tasks()
	if _, err := streampu.ProfileTypes(tasks, 1, profileWarm, 1); err != nil {
		return err
	}
	runs := make([][]float64, len(tasks))
	for r := 0; r < profileRuns; r++ {
		t0 := time.Now()
		prof, err := streampu.ProfileTypes(tasks, 1, profileFrames, 1)
		if err != nil {
			return err
		}
		for i, us := range prof[core.Big] {
			runs[i] = append(runs[i], us)
		}
		fmt.Fprintf(log, "profile run %d/%d: %v\n", r+1, profileRuns, time.Since(t0).Round(time.Millisecond))
	}
	if f := rx.Monitor.FrameErrors.Load(); f > 0 {
		return fmt.Errorf("receiver decoded %d frames with bit errors while profiling", f)
	}
	p := dvbs2Profile{
		Params: "dvbs2.Test()", WarmupFrames: profileWarm, Frames: profileFrames, Runs: profileRuns,
		Nproc: runtime.NumCPU(), GoVersion: runtime.Version(),
	}
	for i, t := range tasks {
		xs := runs[i]
		med := stats.Median(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		if med <= 0 {
			med = 0.01 // never plan a zero-weight task (as LiveProfile)
		}
		p.Tasks = append(p.Tasks, profileEntry{Name: t.Name(), Us: med, Spread: (hi - lo) / med})
	}
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
