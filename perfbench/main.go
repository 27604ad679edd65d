// Command perfbench is the repository's end-to-end benchmark. One run
// executes one workload against the public APIs of the planning layers
// (strategy, herad and the heuristics over sched), the period predictor
// (desim), the streaming runtime (streampu) and the DVB-S2 receiver
// (dvbs2), checks every output, and prints each metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics of manifest.go
// for the named workload. With --trace 1 they are the per-layer metrics,
// measured by a separate run that wraps each layer call in spans recorded
// by this package and reads the counters and samplers the program
// already exposes; a traced run measures every workload for an equal
// share of its time, so it reports the whole per-layer ledger.
//
// Run it from the repository root through run.sh, which builds this
// package first:
//
//	bash perfbench/run.sh --workload plan-mix --seed 1 --seconds 10 --trace 0
//
// Two maintenance modes exist: --manifest prints BENCHMARK.json from the
// definitions in manifest.go, and --regen-profile re-measures the
// committed DVB-S2 task profile (data/dvbs2_profile.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"ampsched/internal/stats"
)

// config is what every workload receives from the command line.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	spans   *spanLog // nil unless trace
}

// result collects what a workload measured and how its outputs checked.
type result struct {
	attempted int64
	failed    int64
	problems  []string // first few check failures, for the log
	e2e       map[string]float64
	layer     map[string]float64
	named     []namedValue // the workload's own metric names, for the log
}

type namedValue struct {
	name  string
	value float64
	unit  string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records n failed outputs with a reason; reasons past the first
// few are counted but not kept.
func (r *result) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// check records one failed output when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(1, format, args...)
	}
}

// name logs a metric under the workload's own name (plans_per_s, fps,
// frame_ms_p99, …), as README.md lists them.
func (r *result) name(name string, v float64, unit string) {
	r.named = append(r.named, namedValue{name, v, unit})
}

// workload is one benchmark input set. setup builds everything the
// measured phase needs (inputs, transmitter and receiver, the initial
// plan or fill) and is timed, several times, as setup_s; warm runs a
// fixed amount of the workload's own traffic on the last set-up state,
// timed apart as warmup_s, so that setup_s does not repeat the measured
// throughput; run measures for the configured seconds and fills the
// result.
type workload struct {
	name  string
	why   string
	setup func(cfg config) (any, error)
	warm  func(state any) error
	run   func(cfg config, state any, res *result) error
}

// prepare runs the workload's warm-up on state and logs its duration.
func (w workload) prepare(state any, res *result) error {
	start := time.Now()
	if err := w.warm(state); err != nil {
		return fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	res.name("warmup_s", time.Since(start).Seconds(), "s")
	return nil
}

// setup runs at least setupRepeats times and for at least setupMin per
// invocation; setup_s is the median, and the last set-up state is the
// one measured. The time floor gives the sub-millisecond set-ups (the
// DVB-S2 receiver's) hundreds of samples.
const (
	setupRepeats = 15
	setupMin     = 250 * time.Millisecond
)

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see --manifest)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", runSeconds, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spanDir := fs.String("span-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	regen := fs.String("regen-profile", "", "re-measure the DVB-S2 task profile into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifest {
		if err := writeManifest(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *regen != "" {
		if err := regenProfile(*regen, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	if cfg.trace {
		cfg.spans = newSpanLog()
	}
	fmt.Fprintf(stdout, "# provenance: workload=%s seed=%d nproc=%d gomaxprocs=%d go=%s os=%s/%s seconds=%g trace=%d\n",
		w.name, cfg.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		runtime.GOOS, runtime.GOARCH, cfg.seconds, *traceFlag)

	res := newResult()
	steal0, _, total0 := cpuTicks()
	var err error
	if cfg.trace {
		err = runLedger(cfg, res)
	} else {
		err = runMeasured(w, cfg, res)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	// The share of CPU time the hypervisor took from this machine while
	// the run measured: the host noise behind a run's figures.
	steal1, _, total1 := cpuTicks()
	fmt.Fprintf(stdout, "# host: steal_share=%.4f\n", ratio(float64(steal1-steal0), float64(total1-total0)))

	if cfg.trace {
		res.layer["trace.spans_recorded"] = float64(cfg.spans.len())
		path, err := cfg.spans.write(*spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans: %s\n", path)
	}
	return report(w, cfg, res, stdout, stderr)
}

// runMeasured is the untraced run of one workload: set-up timed (see
// setupRepeats), the warm-up, then the measured run.
func runMeasured(w workload, cfg config, res *result) error {
	var state any
	var setups []float64
	begin := time.Now()
	for i := 0; i < setupRepeats || time.Since(begin) < setupMin; i++ {
		state = nil
		runtime.GC()
		start := time.Now()
		st, err := w.setup(cfg)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			return fmt.Errorf("%s set-up: %w", w.name, err)
		}
		state = st
	}
	res.e2e["setup_s"] = stats.Median(setups)
	res.name("setup_repeats", float64(len(setups)), "count")
	if err := w.prepare(state, res); err != nil {
		return err
	}
	stop := make(chan struct{})
	rss := watchRSS(stop)
	err := w.run(cfg, state, res)
	close(stop)
	res.e2e["peak_rss_mb"] = <-rss
	res.name("vm_hwm_mb", statusMB("VmHWM:"), "MB")
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	return nil
}

// peak_rss_mb is the median, over rssWindow windows of the measured run,
// of the largest resident set (VmRSS) sampled every rssEvery in the
// window. The process's all-time peak (VmHWM, logged as vm_hwm_mb) is a
// single extreme: dvbs2-live allocates about 360 KB per frame and
// collects a hundred times a second, so its peak is the heap's largest
// overshoot past the collector's goal, which grew with stolen CPU time
// and spread 0.17 over five seeds.
const (
	rssEvery  = 20 * time.Millisecond
	rssWindow = time.Second
)

// watchRSS samples the resident set until stop is closed, then sends
// the windowed peak described above (MB). A run shorter than one window
// gives its single partial window.
func watchRSS(stop <-chan struct{}) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		var peaks []float64
		peak := statusMB("VmRSS:")
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		start := time.Now()
		for {
			select {
			case <-stop:
				if len(peaks) == 0 {
					peaks = append(peaks, peak)
				}
				out <- stats.Median(peaks)
				return
			case now := <-tick.C:
				peak = math.Max(peak, statusMB("VmRSS:"))
				if now.Sub(start) >= rssWindow {
					peaks = append(peaks, peak)
					peak, start = 0, now
				}
			}
		}
	}()
	return out
}

// runLedger is the traced run. It measures every workload for an equal
// share of the run, so every per-layer metric is measured in every traced
// run, whichever workload the command line names. Metrics of the layers
// more than one workload exercises carry the workload's name as a suffix
// (perWorkload).
func runLedger(cfg config, res *result) error {
	share := cfg
	share.seconds = cfg.seconds / float64(len(workloads))
	for _, w := range workloads {
		st, err := w.setup(share)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", w.name, err)
		}
		sub := newResult()
		if err := w.prepare(st, sub); err != nil {
			return err
		}
		if err := w.run(share, st, sub); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res.attempted += sub.attempted
		res.failed += sub.failed
		for _, p := range sub.problems {
			res.problems = append(res.problems, w.name+": "+p)
		}
		for _, nv := range sub.named {
			nv.name = w.name + "." + nv.name
			res.named = append(res.named, nv)
		}
		for k, v := range sub.layer {
			res.layer[perWorkload(k, w.name)] = v
		}
	}
	return nil
}

// sharedFamilies are the per-layer metric families that more than one
// workload measures.
var sharedFamilies = []string{"trace", "tail", "streampu", "gap", "source"}

// perWorkload qualifies a metric of a shared family with the workload.
func perWorkload(metric, workload string) string {
	family, _, _ := strings.Cut(metric, ".")
	for _, f := range sharedFamilies {
		if f == family {
			return metric + "." + workload
		}
	}
	return metric
}

// report prints the human-readable metric lines and the final JSON line,
// and returns the exit code: non-zero when any output failed its check
// or a metric the manifest promises is missing.
func report(w workload, cfg config, res *result, stdout, stderr io.Writer) int {
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	failRatio := float64(res.failed) / float64(max(res.attempted, 1))
	res.name("fail_ratio", failRatio, "ratio")
	if !cfg.trace {
		res.name("setup_s", res.e2e["setup_s"], "s")
		res.name("peak_rss_mb", res.e2e["peak_rss_mb"], "MB")
	}
	for _, nv := range res.named {
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", nv.name, nv.value, nv.unit)
	}

	defs := endToEnd
	values := res.e2e
	if cfg.trace {
		defs = perLayer
		values = res.layer
		names := make([]string, 0, len(values))
		for k := range values {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(stdout, "# layer %-44s %14.6g\n", k, values[k])
		}
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metricOut{}
	missing := 0
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", w.name, d.Name)
			missing++
			continue
		}
		metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	correct := res.failed == 0 && missing == 0 && res.attempted > 0
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// cpuTicks returns the machine's stolen, idle (idle and iowait) and
// total CPU ticks from /proc/stat (zeros where it cannot be read).
func cpuTicks() (steal, idle, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		var v int64
		if _, err := fmt.Sscan(f, &v); err != nil {
			return 0, 0, 0
		}
		total += v
		switch i {
		case 3, 4:
			idle += v
		case 7:
			steal = v
		}
	}
	return steal, idle, total
}

// stolen accumulates, over the phases a closed loop's rate is measured
// in, the CPU ticks the machine wanted (all but idle) and the share of
// them the hypervisor stole. A virtual CPU is only stolen from while it
// wants to run, so the share is taken of the wanted ticks, not of all.
type stolen struct{ steal, wanted int64 }

// during runs f and adds the ticks that passed meanwhile.
func (s *stolen) during(f func()) {
	st0, idle0, tot0 := cpuTicks()
	f()
	st1, idle1, tot1 := cpuTicks()
	s.steal += st1 - st0
	s.wanted += (tot1 - tot0) - (idle1 - idle0)
}

// share is the stolen share of the wanted ticks.
func (s stolen) share() float64 {
	return ratio(float64(s.steal), float64(s.wanted))
}

// granted scales a rate measured while the host stole share() of the
// wanted CPU time to the time it granted: rate ÷ (1 − share).
func (s stolen) granted(rate float64) float64 {
	if sh := s.share(); sh < 1 {
		return rate / (1 - sh)
	}
	return rate
}

// statusMB reads one of the process's memory figures (VmRSS:, VmHWM:)
// from /proc/self/status in MB.
func statusMB(key string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(ln, key) {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(ln[len(key):]), "%g", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
