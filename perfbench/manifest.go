package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 28

// metricDef is one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them: throughput is plans/s on the planning workloads
// and frames/s on the streaming ones, on the CPU time the hypervisor
// granted (stolen.granted in main.go); latency is per plan request or
// per frame (source to sink: open loop on dvbs2-live, closed loop on
// stream-finegrain). The log lines of a run repeat
// them under their workload-specific names (plans_per_s, plan_ms_p25,
// fps, frame_ms_p25, …) together with the medians, the 99th percentiles
// and fail_ratio, which the JSON line carries as failed ÷ attempted.
// Latency is gated at its first quartile, not its median: on a 2-vCPU
// virtual machine the hypervisor's stolen time delays a share of the
// frames, and in six runs with 0.6–12.5% of the CPU time stolen the median
// frame latency of dvbs2-live spread 0.24 between runs (the bound) where
// the first quartile spread 0.09 (README.md). The 99th percentile is not
// gated either: stolen time sets it; the traced run reports it as
// tail.latency_ms_p99.<workload>.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s", "higher", bound(0.25)},
	{"latency_ms_p25", "ms", "lower", bound(0.25)},
	{"peak_rss_mb", "MB", "lower", bound(0.25)},
	{"setup_s", "s", "lower", bound(0.25)},
}

// perLayer are the traced run's metrics, grouped by the layer (package)
// they measure. The comment on each group names the end-to-end metric it
// should move and on which workload.
var perLayer = func() []metricDef {
	var d []metricDef
	add := func(name, unit, better string) {
		d = append(d, metricDef{Name: name, Unit: unit, Better: better})
	}
	// strategy and herad on plan-mix: plan latency per strategy and per
	// HeRAD request class (moves latency_ms_p25, the logged p50/p99 and
	// throughput_per_s).
	for _, s := range []string{"herad", "2catac", "fertac", "otac_b", "otac_l"} {
		add("strategy.plan_ms_p50."+s, "ms", "lower")
	}
	for _, c := range []string{"n20", "n1024", "n1024_eps05"} {
		add("herad.plan_ms_p50."+c, "ms", "lower")
	}
	// herad DP counters (moves plan-mix latency).
	add("herad.dp_cells_per_plan", "count", "lower")
	add("herad.dp_candidates_per_cell", "count", "lower")
	add("herad.dp_pruned_ratio", "ratio", "higher")
	add("herad.alloc_mb_per_plan.n1024", "MB", "lower")
	// twocatac/fertac/otac over sched (moves strategy.plan_ms_p50.*).
	add("twocatac.nodes_per_plan", "count", "lower")
	add("sched.search_iterations_per_plan", "count", "lower")
	// herad incremental refill on replan-edits (moves its latency and
	// throughput).
	add("herad.rows_refilled_ratio", "ratio", "lower")
	add("herad.ms_per_refilled_row", "ms", "lower")
	add("strategy.replan_cold", "count", "lower")
	// dvbs2 receiver DSP on dvbs2-live (moves throughput and latency).
	for i := 1; i <= 23; i++ {
		add(fmt.Sprintf("dvbs2.task_us.t%02d", i), "us", "lower")
	}
	add("dvbs2.ldpc_iters_mean", "count", "lower")
	add("dvbs2.profile_drift", "ratio", "lower")
	// The families measured by several workloads carry the workload's
	// name as a suffix (perWorkload in main.go).
	add("source.late_ms_p99.dvbs2-live", "ms", "lower")
	for _, w := range []string{"dvbs2-live", "stream-finegrain"} {
		// streampu per-frame path (moves throughput_per_s and
		// latency_ms_p25 on stream-finegrain and latency_ms_p25 on
		// dvbs2-live).
		for i := 0; i < 2; i++ {
			add(fmt.Sprintf("streampu.stage_service_us_p50.s%d.%s", i, w), "us", "lower")
			add(fmt.Sprintf("streampu.stage_busy_ratio.s%d.%s", i, w), "ratio", "higher")
		}
		add("streampu.stalls_per_kframe."+w, "count", "lower")
		add("streampu.handoff_us_p50."+w, "us", "lower")
		add("streampu.handoff_us_p99."+w, "us", "lower")
		// Gap ledger: explains where the frame rate goes; moves no
		// end-to-end metric on its own.
		add("gap.planned_period_us."+w, "us", "lower")
		add("gap.desim_period_us."+w, "us", "lower")
		add("gap.measured_period_us."+w, "us", "lower")
		add("gap.host_bound_period_us."+w, "us", "lower")
		add("gap.desim_over_planned."+w, "ratio", "lower")
		add("gap.measured_over_desim."+w, "ratio", "lower")
		add("streampu.sequential_fps."+w, "1/s", "higher")
		add("streampu.speedup."+w, "ratio", "higher")
	}
	for _, w := range workloads {
		// The ungated 99th percentile of latency (see endToEnd), and the
		// cost of observing: traced ÷ untraced throughput.
		add("tail.latency_ms_p99."+w.name, "ms", "lower")
		add("trace.overhead_ratio."+w.name, "ratio", "higher")
	}
	return d
}()

// dvbs2OfferedFPS is the offered rate of dvbs2-live's open-loop phases
// (frames/s), stated in its reason in BENCHMARK.json: about 35–45% of its
// saturated frame rate on a 2-vCPU host. stream-finegrain has no open
// loop: README.md gives the rate sweep and the runs under stolen CPU time
// that ruled one out.
const dvbs2OfferedFPS = 300

var workloads = []workload{
	{
		name: "plan-mix",
		why: "1 closed-loop PlanBatch client: Table I traffic (n=20, 3 SR x 3 R, every strategy), every 32nd request " +
			"HeRAD at n=1024 on (4B,4L); herad/heuristics/sched do all the work",
		setup: setupPlanMix,
		warm:  warmPlanMix,
		run:   runPlanMix,
	},
	{
		name: "replan-edits",
		why: "1 closed-loop ReplanBatch client, a seeded reweigh/append/remove edit at a uniform position, then its undo, " +
			"on a fixed HeRAD n=256 (4B,4L) chain: incremental refill and wavefront pool",
		setup: setupReplan,
		warm:  warmReplan,
		run:   runReplan,
	},
	{
		name: "dvbs2-live",
		why: fmt.Sprintf("real DVB-S2 receiver (Test frames) planned by HeRAD on (1B,1L) from a committed profile: "+
			"2 s blocks of closed loop, then open loop at %d frames/s; dvbs2 DSP dominates", dvbs2OfferedFPS),
		setup: setupDVBS2,
		warm:  warmDVBS2,
		run:   runDVBS2,
	},
	{
		name: "stream-finegrain",
		why: "16 integer-work tasks of a fixed chain, a few us per frame, planned by HeRAD on (1B,1L), closed loop only, " +
			"latency from the source's release at saturation; streampu per-frame path dominates",
		setup: setupFinegrain,
		warm:  warmFinegrain,
		run:   runFinegrain,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// writeManifest prints BENCHMARK.json: the command, the benchmark's
// directory, the run length, the workloads with their reasons, and the
// metrics with their bounds.
func writeManifest(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, x := range workloads {
		m.Workloads = append(m.Workloads, wl{x.name, x.why})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
