package main

import (
	"encoding/json"
	"fmt"
)

// The benchmark's contract: workload names, end-to-end metrics with their
// regression bounds, and per-layer metrics. BENCHMARK.json at the repo
// root is generated from these tables (`go run ./benchmark -spec`) and a
// test asserts the two never drift; -compare takes its bounds from here,
// so the program needs no file at run time.

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 15

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var workloads = []workloadSpec{
	{"pp-real-1k", "1 KiB pingpong on realrt in one address space: per-op overhead only (queue, poll detect, envelope, trace.Incr); netrt does no work, so a netrt change must leave it flat"},
	{"pp-shm-1k", "1 KiB pingpong over the memfd ring/arena: latency-bound shm path (ring slot, 48-byte doorbell, futex wake)"},
	{"pp-shm-64k", "64 KiB pingpong over shm: bandwidth-bound path, one arena memcpy (ckd) vs chunked rendezvous through the ring (msg); small-message changes must leave it flat"},
	{"pp-tcp-1k", "1 KiB pingpong over loopback TCP (ShmOff): eager frame + writev + reader wake with nothing to batch; the latency half of the TCP pair"},
	{"fan-tcp-2k", "window of 16 x 2 KiB on 16 channels then one 8-byte credit over TCP: batching/writev window, coalescing, 16-handle poll set; the throughput half of the TCP pair"},
	{"stencil-shm", "the paper's section 4.1 app (32x32x16, 8 chares, validated) on 2 shm ranks: compute between exchanges, 6-neighbour channels, cross-rank reductions; time per iteration"},
	{"serve-shm", "validated stencil jobs through serve.Server's HTTP API on a warmed 2-rank mesh: job turnaround dominates and the put path does almost nothing, so a put-path change must leave it flat"},
}

// One bound per metric (BENCHMARK.json has no per-workload bounds), so the
// noisiest workload sets it. The timing bounds sit at the contract's
// ceiling: the reference host is a shared 2-vCPU VM whose run-to-run
// spread is 1-3 % in quiet minutes and 10-30 % through a burst of outside
// load (README, "Reference host"), and a bound under the spread would
// reject changes for the weather.
var endToEnd = []e2eSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ckd_op_us_p50", "us", "lower", 0.25},
	{"msg_op_us_p50", "us", "lower", 0.25},
	{"ckd_op_us_p99", "us", "lower", 0.25},
	{"msg_op_us_p99", "us", "lower", 0.25},
	{"ckd_over_msg", "ratio", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"peak_rss_MB", "MB", "lower", 0.25},
}

// Per-layer metrics. traced marks the ones taken per workload from the
// traced/instrumented pass of that workload; the rest come from the layer
// microbenchmarks (-layers), which drive public functions only.
var perLayer = []struct {
	layerSpec
	traced bool
}{
	{layerSpec{"realrt.enqueue_ns", "ns", "lower"}, false},
	{layerSpec{"realrt.enqueue_2p_ns", "ns", "lower"}, false},
	{layerSpec{"realrt.wake_us", "us", "lower"}, false},
	{layerSpec{"realrt.run_empty_us", "us", "lower"}, false},

	{layerSpec{"charm.send_call_ns", "ns", "lower"}, true},
	{layerSpec{"charm.send_to_handler_us", "us", "lower"}, true},
	{layerSpec{"charm.reduce_us", "us", "lower"}, false},
	{layerSpec{"charm.newrts_us", "us", "lower"}, false},
	{layerSpec{"charm.msgs_per_op", "count", "lower"}, true},
	{layerSpec{"charm.bytes_per_op", "B", "lower"}, true},

	{layerSpec{"ckdirect.put_call_ns", "ns", "lower"}, true},
	{layerSpec{"ckdirect.put_to_cb_us", "us", "lower"}, true},
	{layerSpec{"ckdirect.ready_ns", "ns", "lower"}, true},
	{layerSpec{"ckdirect.create_us", "us", "lower"}, false},
	{layerSpec{"ckdirect.polltax_ns_per_handle", "ns", "lower"}, false},
	{layerSpec{"ckdirect.puts_per_op", "count", "lower"}, true},
	{layerSpec{"ckdirect.bytes_per_op", "B", "lower"}, true},

	{layerSpec{"netrt.frame_encode_ns_1k", "ns", "lower"}, false},
	{layerSpec{"netrt.frame_decode_ns_1k", "ns", "lower"}, false},
	{layerSpec{"netrt.env_encode_ns_1k", "ns", "lower"}, false},
	{layerSpec{"netrt.env_decode_ns_1k", "ns", "lower"}, false},
	{layerSpec{"netrt.wire_overhead_B", "B", "lower"}, false},

	{layerSpec{"netrt.boot_ms", "ms", "lower"}, false},
	{layerSpec{"netrt.boot_tcp_ms", "ms", "lower"}, false},
	{layerSpec{"netrt.boot4_ms", "ms", "lower"}, false},
	{layerSpec{"netrt.conns_opened_4", "count", "lower"}, false},
	{layerSpec{"netrt.close_ms", "ms", "lower"}, false},
	{layerSpec{"netrt.run_turnaround_ms", "ms", "lower"}, false},
	{layerSpec{"netrt.term_tail_ms", "ms", "lower"}, true},
	{layerSpec{"netrt.shm_coalesced_per_op", "count", "higher"}, true},
	{layerSpec{"netrt.batch_grows", "count", "lower"}, true},
	{layerSpec{"netrt.eager_shrinks", "count", "lower"}, true},
	{layerSpec{"netrt.probe_rounds_per_run", "count", "lower"}, true},

	{layerSpec{"bufpool.getput_ns_1k", "ns", "lower"}, false},
	{layerSpec{"bufpool.gets_per_op", "count", "lower"}, true},
	{layerSpec{"bufpool.miss_ratio", "ratio", "lower"}, true},

	{layerSpec{"trace.incr_ns", "ns", "lower"}, false},
	{layerSpec{"trace.incr_2g_ns", "ns", "lower"}, false},

	{layerSpec{"mem.allocs_per_op", "count", "lower"}, true},
	{layerSpec{"mem.alloc_B_per_op", "B", "lower"}, true},
	{layerSpec{"mem.gc_pause_us_per_kop", "us", "lower"}, true},
	{layerSpec{"proc.vcsw_per_op", "count", "lower"}, true},
	{layerSpec{"proc.ivcsw_per_op", "count", "lower"}, true},
	{layerSpec{"proc.sys_cpu_share", "ratio", "lower"}, true},

	{layerSpec{"serve.submit_us", "us", "lower"}, true},
	{layerSpec{"serve.run_ms", "ms", "lower"}, true},
	{layerSpec{"serve.overhead_ms", "ms", "lower"}, true},
	{layerSpec{"serve.rejected", "count", "lower"}, true},

	{layerSpec{"apps.stencil_1pe_iter_us", "us", "lower"}, false},
	{layerSpec{"apps.stencil_comm_share", "ratio", "lower"}, false},

	{layerSpec{"sim.events_per_s", "1/s", "higher"}, false},
	{layerSpec{"sim.table1_ckd_30k_us", "us", "lower"}, false},
	{layerSpec{"sim.table1_msg_30k_us", "us", "lower"}, false},

	{layerSpec{"ckpt.encode_us_1m", "us", "lower"}, false},
	{layerSpec{"ckpt.decode_us_1m", "us", "lower"}, false},
	{layerSpec{"lb.plan_us_1k", "us", "lower"}, false},

	{layerSpec{"trace_overhead_ratio", "ratio", "lower"}, true},
}

func findWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// benchmarkJSON renders BENCHMARK.json from the tables above.
func benchmarkJSON() []byte {
	layers := make([]layerSpec, len(perLayer))
	for i, l := range perLayer {
		layers[i] = l.layerSpec
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []e2eSpec      `json:"end_to_end"`
		PerLayer   []layerSpec    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   layers,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("benchmark: encode spec: %v", err))
	}
	return append(b, '\n')
}
