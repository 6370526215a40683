package main

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// medianOr0 is the median, or 0 for a layer the workload never enters
// from outside (reported, not hidden: see the README's per-layer table).
func medianOr0(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

// foldWorkload turns the instrumented pass of one workload into its
// per-workload layer metrics: span medians from the traced blocks, exact
// counts and resource deltas from the untraced ones, the tracing overhead
// from the two.
func foldWorkload(r runner, plain, traced [2]armData, net netCounts) map[string]float64 {
	v := make(map[string]float64)
	msg, ckd := &plain[armMsg], &plain[armCkd]

	v["charm.send_call_ns"] = medianOr0(durations(traced[armMsg].spans, spanSendCall))
	v["charm.send_to_handler_us"] = medianOr0(durations(traced[armMsg].spans, spanSendFly)) / 1e3
	v["ckdirect.put_call_ns"] = medianOr0(durations(traced[armCkd].spans, spanPutCall))
	v["ckdirect.put_to_cb_us"] = medianOr0(durations(traced[armCkd].spans, spanPutFly)) / 1e3
	v["ckdirect.ready_ns"] = medianOr0(durations(traced[armCkd].spans, spanReadyCall))

	v["charm.msgs_per_op"] = ratio(float64(msg.counters["charm.msgs"]), float64(msg.counterOps))
	v["charm.bytes_per_op"] = ratio(float64(msg.counters["charm.bytes"]), float64(msg.counterOps))
	v["ckdirect.puts_per_op"] = ratio(float64(ckd.counters["ckd.puts"]), float64(ckd.counterOps))
	v["ckdirect.bytes_per_op"] = ratio(float64(ckd.counters["ckd.bytes"]), float64(ckd.counterOps))

	var tails []float64
	for _, d := range []*armData{msg, ckd, &traced[armMsg], &traced[armCkd]} {
		tails = append(tails, d.termTails...)
	}
	v["netrt.term_tail_ms"] = medianOr0(tails)
	allOps := float64(msg.counterOps + ckd.counterOps)
	v["netrt.shm_coalesced_per_op"] = ratio(float64(net.coalesced), allOps)
	v["netrt.batch_grows"] = float64(net.batchGrows)
	v["netrt.eager_shrinks"] = float64(net.eagerShrinks)
	v["netrt.probe_rounds_per_run"] = ratio(float64(net.probeRounds), float64(msg.runs+ckd.runs))

	res := msg.res
	res.add(ckd.res)
	ops := float64(msg.ops + ckd.ops)
	v["bufpool.gets_per_op"] = ratio(float64(res.poolGets), ops)
	v["bufpool.miss_ratio"] = ratio(float64(res.poolMisses), float64(res.poolGets))
	v["mem.allocs_per_op"] = ratio(float64(res.mallocs), ops)
	v["mem.alloc_B_per_op"] = ratio(float64(res.allocBytes), ops)
	v["mem.gc_pause_us_per_kop"] = ratio(float64(res.gcPauseNS)/1e3, ops/1e3)
	v["proc.vcsw_per_op"] = ratio(float64(res.vcsw), ops)
	v["proc.ivcsw_per_op"] = ratio(float64(res.ivcsw), ops)
	v["proc.sys_cpu_share"] = ratio(float64(res.sys), float64(res.user+res.sys))

	// Zero on every workload but serve-shm.
	s, _ := r.(*serveRunner)
	if s == nil {
		s = &serveRunner{}
	}
	v["serve.submit_us"] = medianOr0(s.submitUS)
	v["serve.run_ms"] = medianOr0(s.runMS)
	v["serve.overhead_ms"] = medianOr0(s.overheadMS)
	v["serve.rejected"] = float64(s.rejected)

	// The worse arm decides: tracing must stay near free on both.
	v["trace_overhead_ratio"] = 0
	for a := range plain {
		if plain[a].nsamples > 0 && traced[a].nsamples > 0 {
			was, _, _ := plain[a].latency()
			is, _, _ := traced[a].latency()
			if o := ratio(is, was); o > v["trace_overhead_ratio"] {
				v["trace_overhead_ratio"] = o
			}
		}
	}
	return v
}
