package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/apps/pingpong"
	"repro/internal/apps/stencil"
	"repro/internal/bufpool"
	"repro/internal/charm"
	"repro/internal/ckdirect"
	"repro/internal/ckpt"
	"repro/internal/lb"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/realrt"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Layer microbenchmarks: each drives one module's public functions from
// outside and yields the metrics the per-workload traced pass cannot see.
// Iteration counts are fixed (the same on every commit) and sized so the
// whole set takes a few seconds; -smoke divides them by smokeDiv.

const smokeDiv = 50

// perOp times n calls of fn and returns nanoseconds per call.
func perOp(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start)) / float64(n)
}

// medianOf runs fn reps times and returns the median of what it reports.
func medianOf(reps int, fn func() float64) float64 {
	v := make([]float64, reps)
	for i := range v {
		v[i] = fn()
	}
	return median(v)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runLayerBenches runs every microbenchmark and returns metric → value.
func runLayerBenches(seed uint64, smoke bool) map[string]float64 {
	n := func(full int) int {
		if smoke {
			return max(full/smokeDiv, 2)
		}
		return full
	}
	v := make(map[string]float64)
	benchRealrt(v, n)
	benchCharm(v, n)
	benchCkdirect(v, n)
	benchCodec(v, n, seed)
	twoRankIterUS := benchTransport(v, n, seed)
	benchSmall(v, n, seed)
	benchApps(v, n, twoRankIterUS)
	return v
}

// enqueueRun pushes perProducer no-op tasks from each producer onto one
// PE while its worker drains them; a put credit holds the runtime open
// until the producers finish. It returns ns per task.
func enqueueRun(producers, perProducer int) float64 {
	rt := realrt.New(1)
	rt.PutIssued()
	noop := func() {}
	var wg sync.WaitGroup
	wg.Add(producers)
	start := time.Now()
	for p := 0; p < producers; p++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				rt.Enqueue(0, noop)
			}
		}()
	}
	go func() {
		wg.Wait()
		rt.PutDetected()
	}()
	rt.Run()
	return float64(time.Since(start)) / float64(producers*perProducer)
}

func benchRealrt(v map[string]float64, n func(int) int) {
	v["realrt.enqueue_ns"] = medianOf(5, func() float64 { return enqueueRun(1, n(200000)) })
	v["realrt.enqueue_2p_ns"] = medianOf(5, func() float64 { return enqueueRun(2, n(100000)) })

	// Enqueue to a parked PE → task start. The pause lets the worker run
	// out its spin and park before each probe.
	rt := realrt.New(1)
	rt.PutIssued()
	finished := make(chan struct{})
	go func() {
		rt.Run()
		close(finished)
	}()
	wakes := make([]float64, n(300))
	ran := make(chan time.Time)
	for i := range wakes {
		time.Sleep(300 * time.Microsecond)
		t0 := time.Now()
		rt.Enqueue(0, func() { ran <- time.Now() })
		wakes[i] = us((<-ran).Sub(t0))
	}
	rt.PutDetected()
	<-finished
	v["realrt.wake_us"] = median(wakes)

	v["realrt.run_empty_us"] = medianOf(n(500), func() float64 {
		t0 := time.Now()
		realrt.New(numPEs).Run()
		return us(time.Since(t0))
	})
}

// realRTS builds a 2-PE real-backend runtime.
func realRTS() *rankEnv {
	eng := sim.NewEngine()
	mach, net := platform.BuildMachine(eng, numPEs)
	return &rankEnv{mach: mach, rts: charm.NewRTS(eng, mach, net, platform, trace.NewRecorder(),
		charm.Options{Checked: true, Backend: charm.RealBackend})}
}

// eightElements builds the 8-element array over 2 PEs the charm probes use.
func eightElements(rts *charm.RTS) *charm.Array {
	arr := rts.NewArray("probe", charm.BlockMap1D(8, numPEs))
	for i := 0; i < 8; i++ {
		arr.Insert(charm.Idx1(i), &struct{}{})
	}
	return arr
}

func benchCharm(v map[string]float64, n func(int) int) {
	v["charm.newrts_us"] = medianOf(n(300), func() float64 {
		t0 := time.Now()
		eightElements(realRTS().rts)
		return us(time.Since(t0))
	})

	// One reduction cycle on 8 elements over 2 PEs: the client broadcasts
	// "go", every element contributes, the root client fires again.
	e := realRTS()
	arr := eightElements(e.rts)
	rounds := n(3000)
	cycles := make([]float64, 0, rounds)
	var goEP charm.EP
	var last time.Time
	goEP = arr.EntryMethod("go", func(ctx *charm.Ctx, msg *charm.Message) { ctx.Contribute(1) })
	arr.SetReductionClient(charm.Sum, func(ctx *charm.Ctx, vals []float64) {
		now := time.Now()
		cycles = append(cycles, us(now.Sub(last)))
		if len(cycles) < rounds {
			last = now
			ctx.Broadcast(arr, goEP, &charm.Message{Size: 8})
		}
	})
	e.rts.StartAt(0, func(ctx *charm.Ctx) {
		last = time.Now()
		ctx.Broadcast(arr, goEP, &charm.Message{Size: 8})
	})
	e.rts.Run()
	v["charm.reduce_us"] = median(cycles)
}

// idlePingpong is an 8-byte message pingpong between the 2 PEs of a real
// runtime with idle armed CkDirect handles per PE; it returns µs per trip.
func idlePingpong(handles, trips int) float64 {
	e := realRTS()
	mgr := ckdirect.NewManager(e.rts)
	for pe := 0; pe < numPEs; pe++ {
		for i := 0; i < handles; i++ {
			if _, err := mgr.CreateHandle(pe, e.mach.AllocRegion(pe, 64, false), oob, func(*charm.Ctx) {}); err != nil {
				panic(fmt.Sprintf("benchmark: polltax handle: %v", err))
			}
		}
	}
	arr := e.rts.NewArray("pp", func(ix charm.Index) int { return ix[0] })
	arr.Insert(charm.Idx1(0), &struct{}{})
	arr.Insert(charm.Idx1(1), &struct{}{})
	msg := &charm.Message{Size: 8, Data: make([]byte, 8)}
	left := trips
	var start, end time.Time
	var ping, pong charm.EP
	ping = arr.EntryMethod("ping", func(ctx *charm.Ctx, _ *charm.Message) { ctx.Send(arr, charm.Idx1(0), pong, msg) })
	pong = arr.EntryMethod("pong", func(ctx *charm.Ctx, _ *charm.Message) {
		if left--; left == 0 {
			end = time.Now()
			return
		}
		ctx.Send(arr, charm.Idx1(1), ping, msg)
	})
	e.rts.StartAt(0, func(ctx *charm.Ctx) {
		start = time.Now()
		ctx.Send(arr, charm.Idx1(1), ping, msg)
	})
	e.rts.Run()
	return us(end.Sub(start)) / float64(trips)
}

func benchCkdirect(v map[string]float64, n func(int) int) {
	// CreateHandle + AssocLocal of one 1 KiB channel, PE 1 → PE 0.
	e := realRTS()
	mgr := ckdirect.NewManager(e.rts)
	creates := make([]float64, n(2000))
	for i := range creates {
		recv, send := e.mach.AllocRegion(0, 1024, false), e.mach.AllocRegion(1, 1024, false)
		t0 := time.Now()
		h, err := mgr.CreateHandle(0, recv, oob, func(*charm.Ctx) {})
		if err == nil {
			err = mgr.AssocLocal(h, 1, send)
		}
		creates[i] = us(time.Since(t0))
		if err != nil {
			panic(fmt.Sprintf("benchmark: create probe: %v", err))
		}
	}
	v["ckdirect.create_us"] = median(creates)

	// The poll tax as the message path pays it: a PE waiting for its next
	// message scans its armed handles on every idle pass. Per handle, per
	// trip (two waits per trip, polltaxHandles handles per PE). Tiering
	// demotes handles that stay idle, so this is what is left of the
	// tax, not its worst case.
	const polltaxHandles = 64
	trips := n(20000)
	with := medianOf(5, func() float64 { return idlePingpong(polltaxHandles, trips) })
	without := medianOf(5, func() float64 { return idlePingpong(0, trips) })
	v["ckdirect.polltax_ns_per_handle"] = (with - without) * 1e3 / (2 * polltaxHandles)
}

func benchCodec(v map[string]float64, n func(int) int, seed uint64) {
	data := make([]byte, 1024)
	rng.New(seed).Fill(data)
	env := &netrt.Env{Kind: netrt.EnvArray, Array: 0, EP: 1, Index: [4]int{1}, SrcPE: 0, DstPE: 1, Size: len(data), Data: data}
	encEnv := netrt.EncodeEnv(env)
	frame := &netrt.Frame{Type: netrt.FEager, Run: 1, Payload: encEnv}
	encFrame, err := netrt.EncodeFrame(frame)
	if err != nil {
		panic(fmt.Sprintf("benchmark: encode frame: %v", err))
	}
	// Exact: what one 1 KiB array message costs on the wire beyond its payload.
	v["netrt.wire_overhead_B"] = float64(len(encFrame) - len(data))

	iters := n(400000)
	buf := make([]byte, 0, len(encFrame))
	scratch := make([]byte, len(encEnv))
	v["netrt.env_encode_ns_1k"] = medianOf(5, func() float64 {
		return perOp(iters, func() { buf = netrt.AppendEnv(buf[:0], env) })
	})
	v["netrt.env_decode_ns_1k"] = medianOf(5, func() float64 {
		return perOp(iters, func() {
			if _, err := netrt.DecodeEnvShared(encEnv); err != nil {
				panic(err)
			}
		})
	})
	v["netrt.frame_encode_ns_1k"] = medianOf(5, func() float64 {
		return perOp(iters, func() {
			if buf, err = netrt.AppendFrame(buf[:0], frame); err != nil {
				panic(err)
			}
		})
	})
	v["netrt.frame_decode_ns_1k"] = medianOf(5, func() float64 {
		return perOp(iters, func() {
			if _, _, err := netrt.DecodeFrameInto(encFrame, scratch); err != nil {
				panic(err)
			}
		})
	})
}

// bootClose boots a world and closes it, returning both durations and the
// TCP sockets the world opened.
func bootClose(world int, cfg netrt.Config) (boot, closing time.Duration, conns int64) {
	t0 := time.Now()
	nodes, err := netrt.StartLocalConfig(world, cfg)
	boot = time.Since(t0)
	if err != nil {
		panic(fmt.Sprintf("benchmark: boot %d ranks: %v", world, err))
	}
	for _, node := range nodes {
		conns += node.ConnsOpened()
	}
	t1 := time.Now()
	for _, node := range nodes {
		node.Close()
	}
	return boot, time.Since(t1), conns
}

// benchTransport also returns the 2-rank stencil iteration time measured
// on its warmed mesh, the denominator of apps.stencil_comm_share.
func benchTransport(v map[string]float64, n func(int) int, seed uint64) (twoRankIterUS float64) {
	boots := n(20)
	var bootShm, bootTCP, boot4, closes []float64
	for i := 0; i < boots; i++ {
		b, c, _ := bootClose(numPEs, netrt.Config{Seed: seed})
		bootShm, closes = append(bootShm, ms(b)), append(closes, ms(c))
		b, _, _ = bootClose(numPEs, netrt.Config{Seed: seed, ShmOff: true})
		bootTCP = append(bootTCP, ms(b))
		b, _, conns := bootClose(4, netrt.Config{Seed: seed})
		boot4 = append(boot4, ms(b))
		// Lazy dialing opens only the coordinator star at boot: exact.
		v["netrt.conns_opened_4"] = float64(conns)
	}
	v["netrt.boot_ms"] = median(bootShm)
	v["netrt.boot_tcp_ms"] = median(bootTCP)
	v["netrt.boot4_ms"] = median(boot4)
	v["netrt.close_ms"] = median(closes)

	// An empty run generation on a warmed mesh: NewRTS + Run with nothing
	// to do is pure turnaround (attach, termination rounds, halt, detach).
	w, err := bootWorld(onShm, seed)
	if err != nil {
		panic(fmt.Sprintf("benchmark: %v", err))
	}
	defer w.close()
	v["netrt.run_turnaround_ms"] = medianOf(n(100), func() float64 {
		t0 := time.Now()
		if _, errs := w.runSPMD(true, func(*rankEnv) {}); len(errs) > 0 {
			panic(fmt.Sprintf("benchmark: empty run: %v", errs[0]))
		}
		return ms(time.Since(t0))
	})

	// The same stencil as stencil-shm, on the same kind of mesh.
	r := &stencilRunner{w: w}
	b := r.block(armCkd, blockLimit{ops: n(100)})
	if b.failed > 0 {
		panic("benchmark: layer stencil probe failed validation")
	}
	return median(b.samples)
}

func benchSmall(v map[string]float64, n func(int) int, seed uint64) {
	iters := n(2000000)
	v["bufpool.getput_ns_1k"] = medianOf(5, func() float64 {
		return perOp(iters, func() { bufpool.Put(bufpool.Get(1024)) })
	})

	rec := trace.NewRecorder()
	v["trace.incr_ns"] = medianOf(5, func() float64 {
		return perOp(iters, func() { rec.Incr("charm.msgs", 1) })
	})
	v["trace.incr_2g_ns"] = medianOf(5, func() float64 {
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters/2; i++ {
					rec.Incr("charm.msgs", 1)
				}
			}()
		}
		wg.Wait()
		return float64(time.Since(t0)) / float64(iters/2)
	})

	snap := &ckpt.Snapshot{Rank: 1, World: 2, Step: 7, Payload: make([]byte, 1<<20)}
	rng.New(seed).Fill(snap.Payload)
	enc, err := ckpt.Encode(snap)
	if err != nil {
		panic(fmt.Sprintf("benchmark: ckpt encode: %v", err))
	}
	v["ckpt.encode_us_1m"] = medianOf(n(100), func() float64 {
		t0 := time.Now()
		if _, err := ckpt.Encode(snap); err != nil {
			panic(err)
		}
		return us(time.Since(t0))
	})
	v["ckpt.decode_us_1m"] = medianOf(n(100), func() float64 {
		t0 := time.Now()
		if _, err := ckpt.Decode(enc); err != nil {
			panic(err)
		}
		return us(time.Since(t0))
	})

	r := rng.New(seed ^ 0x6c62)
	loads := make([]lb.ElementLoad, 1024)
	for i := range loads {
		loads[i] = lb.ElementLoad{Index: charm.Idx1(i), PE: i % 16, BusyNS: int64(1000 + r.Intn(100000)), Msgs: 1, Bytes: 1024}
	}
	greedy := &lb.Greedy{}
	v["lb.plan_us_1k"] = medianOf(n(100), func() float64 {
		t0 := time.Now()
		greedy.Plan(16, loads)
		return us(time.Since(t0))
	})
}

func benchApps(v map[string]float64, n func(int) int, twoRankIterUS float64) {
	// The stencil-shm domain on one PE of the real backend: the plain
	// serial baseline (no exchange crosses a PE).
	cfg := stencilConfig(stencil.Ckd)
	cfg.PEs, cfg.Virtualization, cfg.Backend = 1, 8, charm.RealBackend
	one := medianOf(n(100), func() float64 { return stencil.Run(cfg).IterTime.Micros() })
	v["apps.stencil_1pe_iter_us"] = one
	// 1 − (ideal 2-way split of the serial time) ÷ measured 2-rank time:
	// the share of an iteration any communication change could save.
	v["apps.stencil_comm_share"] = 1 - ratio(one/2, twoRankIterUS)

	// Simulator throughput and two modelled Table 1 cells (these repeat
	// exactly: the model is deterministic).
	simCfg := stencil.Config{Platform: netmodel.AbeIB, Mode: stencil.Ckd, PEs: 64, Virtualization: 8,
		NX: 256, NY: 256, NZ: 128, Iters: n(10), Warmup: 1}
	t0 := time.Now()
	events := stencil.Run(simCfg).TotalEvents
	v["sim.events_per_s"] = float64(events) / time.Since(t0).Seconds()
	for mode, name := range map[pingpong.Mode]string{pingpong.CkDirect: "sim.table1_ckd_30k_us", pingpong.CharmMsg: "sim.table1_msg_30k_us"} {
		v[name] = pingpong.Run(pingpong.Config{Platform: netmodel.AbeIB, Mode: mode, Size: 30000, Iters: 10}).RTTMicros()
	}
}
