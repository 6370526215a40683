package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/rng"
)

// runner is one workload bound to a booted backend. setup is everything a
// user pays before the first timed op except the warm-up blocks (world
// boot, server start); block runs one arm for one block; close stops
// everything setup started and waits for it.
type runner interface {
	setup(seed uint64) error
	block(a arm, lim blockLimit) blockResult
	// warmLimit is the fixed-size untimed warm-up block of set-up;
	// smokeLimit the tiny block of -smoke.
	warmLimit() blockLimit
	smokeLimit() blockLimit
	world() *world
	close()
}

// newRunner maps a workload name to its runner.
func newRunner(name string) runner {
	switch name {
	case "pp-real-1k":
		return &ppRunner{shape: ppShape{backend: onReal, payload: 1024, fan: 1, credit: 1024, batch: 16, warm: 2048, traceOps: 4000}, warmOps: 8192}
	case "pp-shm-1k":
		return &ppRunner{shape: ppShape{backend: onShm, payload: 1024, fan: 1, credit: 1024, batch: 1, warm: 256, traceOps: 4000}, warmOps: 2048}
	case "pp-shm-64k":
		return &ppRunner{shape: ppShape{backend: onShm, payload: 65536, fan: 1, credit: 65536, batch: 1, warm: 64, traceOps: 2000}, warmOps: 512}
	case "pp-tcp-1k":
		return &ppRunner{shape: ppShape{backend: onTCP, payload: 1024, fan: 1, credit: 1024, batch: 1, warm: 128, traceOps: 4000}, warmOps: 1024}
	case "fan-tcp-2k":
		return &ppRunner{shape: ppShape{backend: onTCP, payload: 2048, fan: 16, credit: 8, batch: 1, warm: 32, traceOps: 400}, warmOps: 256}
	case "stencil-shm":
		return &stencilRunner{}
	case "serve-shm":
		return &serveRunner{}
	}
	panic(fmt.Sprintf("benchmark: unknown workload %q", name))
}

// ppRunner drives the harness-owned pp-* and fan-* workloads.
type ppRunner struct {
	shape   ppShape
	warmOps int
	seed    uint64
	w       *world
}

// sampleBuf is the one sample buffer every pp block records into (see
// runPPBlock for why it must not grow or be reallocated). A 1.07 s block
// of the fastest workload (0.6 µs trips in batches of 16) yields 110 k.
var sampleBuf = make([]float64, 0, 1<<18)

func (r *ppRunner) setup(seed uint64) (err error) {
	r.seed = seed
	r.w, err = bootWorld(r.shape.backend, seed)
	return err
}

// block's samples alias sampleBuf: consume them (armData.add) before the
// next block.
func (r *ppRunner) block(a arm, lim blockLimit) blockResult {
	return runPPBlock(r.w, r.shape, a, lim, r.seed, sampleBuf)
}

func (r *ppRunner) warmLimit() blockLimit  { return blockLimit{ops: r.warmOps} }
func (r *ppRunner) smokeLimit() blockLimit { return blockLimit{ops: 4 * r.shape.batch} }
func (r *ppRunner) world() *world          { return r.w }
func (r *ppRunner) close()                 { r.w.close() }

// armData pools one arm's blocks.
type armData struct {
	samples    []float64 // pooled, of the blocks too small to stand alone
	nsamples   int       // of all blocks
	ops        int64
	attempted  int64
	failed     int64
	res        resDelta
	counters   map[string]int64
	termTails  []float64 // ms
	envWire    int
	runs       int64 // run generations
	counterOps int64 // ops the counters cover
	spans      []span

	// Per-block statistics: of the blocks large enough to stand alone
	// (P50, P99), and of every timed block (CPU).
	blockP50 []float64
	blockP99 []float64
	blockCPU []float64 // CPU µs (user+sys, whole process) per op
}

// quietBlock is the lower tercile of a per-block statistic — the 3rd
// lowest of the 7 timed blocks. It has to survive two kinds of block that
// say nothing about the program's usual speed. On a shared host, bursts of
// outside load last seconds and inflate whole blocks by 25-60 %, while a
// change in the program moves every block: a low quantile keeps the first
// out of the metric and the second in it (over 47 back-to-back pp-tcp-1k
// runs through one burst, the run-to-run spread of the median over blocks
// reached 13 %, of a low quantile 6 %). And a pingpong between two
// spinning PEs is bistable: for as long as nothing delays either side
// neither exhausts its spin budget and a put round trip on real takes
// 0.6-0.8 us instead of the 1.9 us of park/wake lockstep; about one block
// in ten spends most of its second there, so the 2nd lowest of 7 is such
// a block in one run of seven, the 3rd lowest in one of forty.
func quietBlock(v []float64) float64 { return sortedCopy(v)[len(v)/3] }

// ownTailSamples is the block size from which a block has its own p99
// (tailSamples beyond it) and stands alone; smaller blocks are pooled.
const ownTailSamples = 100 * tailSamples

// latency is the arm's reported median and tail op time, and which
// percentile the tail is. When the blocks stand alone (all pp-* and fan-*
// workloads: thousands of samples each) both are the quiet block's. When
// they are too small (stencil-shm, serve-shm: a hundred or two samples a
// block, whose own medians are noise) the pooled samples of all blocks
// decide, the tail at the highest percentile that keeps ten beyond it.
func (d *armData) latency() (p50, tail, percentile float64) {
	if len(d.samples) == 0 {
		return quietBlock(d.blockP50), quietBlock(d.blockP99), 0.99
	}
	s := sortedCopy(d.samples)
	p := tailPercentile(len(s), 0.99)
	return quantile(s, 0.5), quantile(s, p), p
}

// add folds one block in. It sorts b.samples in place: they are the
// block's to consume (the pp runner reuses their buffer for the next one).
func (d *armData) add(b blockResult) {
	if n := len(b.samples); n >= ownTailSamples {
		sort.Float64s(b.samples)
		d.blockP50 = append(d.blockP50, quantile(b.samples, 0.5))
		d.blockP99 = append(d.blockP99, quantile(b.samples, 0.99))
	} else {
		d.samples = append(d.samples, b.samples...)
	}
	if b.ops > 0 {
		d.blockCPU = append(d.blockCPU, float64(b.res.user+b.res.sys)/1e3/float64(b.ops))
	}
	d.nsamples += len(b.samples)
	d.ops += b.ops
	d.attempted += b.attempted
	d.failed += b.failed
	d.res.add(b.res)
	if d.counters == nil {
		d.counters = make(map[string]int64)
	}
	for k, v := range b.counters {
		d.counters[k] += v
	}
	if b.termTail > 0 {
		d.termTails = append(d.termTails, float64(b.termTail)/1e6)
	}
	d.envWire = b.envWire
	d.runs += b.runs
	d.counterOps += b.counterOps
	// Span ids are per block; shift them so blocks pool into one list.
	off := len(d.spans)
	for _, s := range b.spans {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		if s.Cause != 0 {
			s.Cause += off
		}
		d.spans = append(d.spans, s)
	}
}

// blocksPerArm is the number of interleaved timed blocks each arm gets.
const blocksPerArm = 7

// setupReps is how many times set-up is repeated in one run; setup_s is
// the median, so one slow boot does not decide the metric.
const setupReps = 5

// setUp performs the whole set-up once — boot, creation, one untimed
// warm-up block per arm — and returns the live runner with the time it
// took. Warm-up failures count like any other.
func setUp(name string, seed uint64, smoke bool) (runner, time.Duration, [2]armData, error) {
	var warm [2]armData
	start := time.Now()
	r := newRunner(name)
	if err := r.setup(seed); err != nil {
		return nil, 0, warm, err
	}
	lim := r.warmLimit()
	if smoke {
		lim = r.smokeLimit()
	}
	for _, a := range []arm{armMsg, armCkd} {
		warm[a].add(r.block(a, lim))
	}
	return r, time.Since(start), warm, nil
}

// armOrder draws, for each round, which arm goes first.
func armOrder(seed uint64, rounds int) [][2]arm {
	r := rng.New(seed ^ 0x6f72646572)
	order := make([][2]arm, rounds)
	for i := range order {
		order[i] = [2]arm{armMsg, armCkd}
		if r.Intn(2) == 1 {
			order[i] = [2]arm{armCkd, armMsg}
		}
	}
	return order
}
