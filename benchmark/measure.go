package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricVal is one reported number.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wlResult is one run of one workload: the contract's result object plus
// what the human report prints beside it.
type wlResult struct {
	Workload  string               `json:"workload"`
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
	// Samples is the pooled sample count per arm behind the percentiles.
	Samples map[string]int `json:"samples,omitempty"`
	// Tail names the percentile actually reported under *_p99 (lower when
	// an arm pooled too few samples for a p99).
	Tail map[string]float64 `json:"tail,omitempty"`
	// P50 of the traced run's two blocks per arm: "msg", "ckd" with spans
	// off, "msg.traced", "ckd.traced" with spans on.
	BlockP50 map[string]float64 `json:"block_p50_us,omitempty"`
	// Budget is, per arm, where the traced ops' time went.
	Budget map[string]budget `json:"-"`
}

// measureE2E is the untraced run: repeated set-up, then blocksPerArm
// interleaved timed blocks per arm sharing `seconds` of timed region.
// Closed loop, one op in flight: the driver waits for each reply.
func measureE2E(name string, seed uint64, seconds float64, smoke bool) (wlResult, error) {
	res := wlResult{Workload: name, Metrics: map[string]metricVal{}, Samples: map[string]int{}, Tail: map[string]float64{}}
	var arms [2]armData
	var setups []float64
	var r runner
	reps := setupReps
	if smoke {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if r != nil {
			r.close()
		}
		var d time.Duration
		var warm [2]armData
		var err error
		if r, d, warm, err = setUp(name, seed, smoke); err != nil {
			return res, err
		}
		setups = append(setups, d.Seconds())
		for a := range warm {
			// Warm-up ops are checked and counted, never timed.
			arms[a].attempted += warm[a].attempted
			arms[a].failed += warm[a].failed
		}
	}
	defer r.close()

	var peakRSS float64
	rounds := blocksPerArm
	lim := blockLimit{dur: time.Duration(seconds / float64(2*blocksPerArm) * float64(time.Second))}
	if smoke {
		rounds, lim = 1, r.smokeLimit()
	}
	for _, pair := range armOrder(seed, rounds) {
		for _, a := range pair {
			// Every block starts from a collected heap, so one block's
			// garbage does not set the next block's GC pace.
			runtime.GC()
			b := r.block(a, lim)
			arms[a].add(b)
			peakRSS = max(peakRSS, residentMB())
			if verbose {
				s := sortedCopy(b.samples)
				fmt.Fprintf(logw, "  block %v: n=%d p50=%.3f p99=%.3f us, cpu %.3f us/op\n", a, len(s),
					quantile(s, 0.5), quantile(s, 0.99), float64(b.res.user+b.res.sys)/1e3/float64(max(b.ops, 1)))
			}
		}
	}

	var p50, cpu [2]float64
	for _, a := range []arm{armMsg, armCkd} {
		d := &arms[a]
		res.Attempted += d.attempted
		res.Failed += d.failed
		if d.nsamples == 0 {
			return res, fmt.Errorf("%s: %v arm produced no samples", name, a)
		}
		var p99, tail float64
		p50[a], p99, tail = d.latency()
		cpu[a] = quietBlock(d.blockCPU)
		res.Metrics[a.String()+"_op_us_p50"] = metricVal{p50[a], "us"}
		res.Metrics[a.String()+"_op_us_p99"] = metricVal{p99, "us"}
		res.Samples[a.String()] = d.nsamples
		res.Tail[a.String()] = tail
	}
	res.Metrics["setup_s"] = metricVal{median(setups), "s"}
	res.Metrics["ckd_over_msg"] = metricVal{p50[armCkd] / p50[armMsg], "ratio"}
	res.Metrics["cpu_us_per_op"] = metricVal{(cpu[armMsg] + cpu[armCkd]) / 2, "us"}
	res.Metrics["peak_rss_MB"] = metricVal{peakRSS, "MB"}
	res.Correct = res.Failed == 0
	return res, nil
}

// measureLayers is the traced run of one workload: an untraced and a
// traced block per arm (their ratio is the tracing overhead), the
// spans folded into the per-workload layer metrics and written out as a
// Chrome trace, joined with the layer microbenchmarks' values (micro,
// which do not depend on the workload and are run once per process).
// End-to-end numbers never come from here.
func measureLayers(name string, seed uint64, seconds float64, smoke bool, micro map[string]float64) (wlResult, error) {
	res := wlResult{Workload: name, Metrics: map[string]metricVal{}, Samples: map[string]int{}}
	r, _, warm, err := setUp(name, seed, smoke)
	if err != nil {
		return res, err
	}
	lim := blockLimit{dur: time.Duration(seconds / 8 * float64(time.Second))}
	if smoke {
		lim = r.smokeLimit()
	}
	tracedLim := lim
	tracedLim.traced = true
	// Per arm, one block with spans off and one with spans on, equally
	// long: counts and resource deltas come from the first, span medians
	// from the second, the tracing overhead from their ratio.
	var plain, traced [2]armData
	net0 := r.world().netCounts()
	for _, a := range []arm{armMsg, armCkd} {
		runtime.GC()
		plain[a].add(r.block(a, lim))
	}
	net := r.world().netCounts().minus(net0)
	for _, a := range []arm{armMsg, armCkd} {
		runtime.GC()
		traced[a].add(r.block(a, tracedLim))
	}
	vals := foldWorkload(r, plain, traced, net)
	r.close()
	// One file per workload, msg arm's spans then ckd's.
	var both armData
	both.add(blockResult{spans: traced[armMsg].spans})
	both.add(blockResult{spans: traced[armCkd].spans})
	if err := writeChromeTrace(filepath.Join(traceDir, "trace-"+name+".json"), both.spans); err != nil {
		// The metrics below do not depend on the file; say so and go on.
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	}
	for k, v := range micro {
		vals[k] = v
	}
	for _, l := range perLayer {
		res.Metrics[l.Name] = metricVal{vals[l.Name], l.Unit}
	}
	res.BlockP50, res.Budget = map[string]float64{}, map[string]budget{}
	for _, a := range []arm{armMsg, armCkd} {
		res.Attempted += warm[a].attempted + plain[a].attempted + traced[a].attempted
		res.Failed += warm[a].failed + plain[a].failed + traced[a].failed
		res.Samples[a.String()] = traced[a].nsamples
		res.BlockP50[a.String()], _, _ = plain[a].latency()
		res.BlockP50[a.String()+".traced"], _, _ = traced[a].latency()
		res.Budget[a.String()] = spanBudget(traced[a].spans)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// traceDir is where the traced pass leaves its Chrome-trace files,
// relative to the repo root the benchmark is run from (tests redirect it).
var traceDir = "benchmark/out"

// printResult writes the human report of one run: every metric by name
// with its unit, the sample counts, and the failure ratio.
func printResult(res wlResult, traced bool) {
	fmt.Fprintf(logw, "workload %s", res.Workload)
	for _, w := range workloads {
		if w.Name == res.Workload {
			fmt.Fprintf(logw, " — %s", w.Why)
		}
	}
	fmt.Fprintln(logw)
	names := make([]string, 0, len(res.Metrics))
	if traced {
		for _, l := range perLayer {
			names = append(names, l.Name)
		}
	} else {
		for _, m := range endToEnd {
			names = append(names, m.Name)
		}
	}
	for _, n := range names {
		m := res.Metrics[n]
		note := ""
		if a, kind, isArm := strings.Cut(n, "_op_us_"); isArm {
			note = fmt.Sprintf("  (n=%d samples)", res.Samples[a])
			if kind == "p99" && res.Tail[a] != 0.99 {
				note = fmt.Sprintf("  (n=%d samples: p%.0f reported, too few for p99)", res.Samples[a], 100*res.Tail[a])
			}
		}
		fmt.Fprintf(logw, "  %-34s %14.4f %-6s%s\n", n, m.Value, m.Unit, note)
	}
	for _, a := range []arm{armMsg, armCkd} {
		b, ok := res.Budget[a.String()]
		if !ok || b.op == 0 {
			continue
		}
		fmt.Fprintf(logw, "  budget %v: mean traced op %.3f us =", a, b.op)
		for _, name := range sortedNames(b.parts) {
			fmt.Fprintf(logw, " %s %.3f +", name, b.parts[name])
		}
		fmt.Fprintf(logw, " self %.3f; p50 traced %.3f us, untraced %.3f us\n",
			b.self, res.BlockP50[a.String()+".traced"], res.BlockP50[a.String()])
	}
	fmt.Fprintf(logw, "  %-34s %14.6f %-6s  (%d failed of %d ops attempted)\n", "fail_ratio",
		float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio", res.Failed, res.Attempted)
}

func sortedNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
