// Package trace provides lightweight counters, accumulators and phase
// timers for instrumenting simulations. The benchmark harness uses it to
// decompose iteration times into the cost components the paper discusses
// (header bytes, scheduling, rendezvous, polling), and tests use it to
// assert that specific code paths were exercised.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/sim"
)

// Canonical counter names shared between the fault-injection plane, the
// reliability layers and the tests that assert on them. Using constants
// keeps producers and consumers from drifting apart on spelling.
const (
	// Fault-injection plane (internal/faults).
	CntDropped    = "net.dropped"
	CntCorrupted  = "net.corrupted"
	CntDelayed    = "net.delayed"
	CntDuplicated = "net.duplicated"

	// Charm reliable-delivery protocol (internal/charm).
	CntRetransmits = "net.retransmits"
	CntAcks        = "net.acks"
	CntDupDiscards = "net.dup_discards"
	CntFailedMsgs  = "net.failed_msgs"

	// CkDirect stall watchdog (internal/ckdirect).
	CntCkdStalls   = "ckd.stalls"
	CntCkdLostPuts = "ckd.lost_puts"
	CntCkdReissues = "ckd.reissues"
	CntCkdDupPuts  = "ckd.dup_puts"

	// Memory discipline of the live backends (internal/charm records
	// these around real/net runs; never under sim, whose counter sets
	// must stay deterministic). Deltas over the run: heap allocations,
	// allocated bytes, GC pause time and cycles, plus the wire buffer
	// pool's activity (bufpool.Stats).
	CntMemAllocs    = "mem.allocs"
	CntMemBytes     = "mem.alloc_bytes"
	CntMemGCPauseNS = "mem.gc_pause_ns"
	CntMemGCs       = "mem.gcs"
	CntPoolGets     = "pool.gets"
	CntPoolPuts     = "pool.puts"
	CntPoolMisses   = "pool.misses"
	CntPoolOversize = "pool.oversize"

	// Load balancer (internal/lb). Migrations counts elements actually
	// moved, bytes the pupped state shipped, rounds the LB barriers run.
	// The spread counters record per-mille max/mean load imbalance as
	// observed at the decision point, before and after applying the plan
	// (predicted), so a bench or /metrics scrape can see what the
	// balancer thought it improved.
	CntLBRounds       = "lb.rounds"
	CntLBMigrations   = "lb.migrations"
	CntLBBytesMoved   = "lb.bytes_moved"
	CntLBForwards     = "lb.forwards"
	CntLBSpreadBefore = "lb.spread_before_permille"
	CntLBSpreadAfter  = "lb.spread_after_permille"
	CntLBRehomedRecv  = "lb.rehomed_recv_handles"
	CntLBRehomedSend  = "lb.rehomed_send_handles"

	// Mesh scaling (internal/netrt, recorded by the charm net backend at
	// the end of each run as the node's cumulative totals — they span
	// bootstrap as well as the run itself). ConnsOpened counts every TCP
	// socket this rank opened (dialed + accepted): under lazy dialing a
	// stencil's 4-neighbor halo stays O(N) per world, not the O(N²) of a
	// full mesh. DialReqs counts lower-rank dial requests relayed via
	// the coordinator. The term counters expose the k-ary termination
	// tree: probe rounds started by the root, and FReport frames
	// arriving at rank 0 (the root's fan-in — bounded by -net.termfanout
	// regardless of world size); event/tick rounds split the probe rounds
	// by what started them (an event, or the 1 ms backstop firing with
	// none pending) and nudges counts the unsolicited epoch-0 reports that
	// reached the root. FramesAfterHalt is this run's own count (not
	// cumulative) of app frames that arrived after the termination
	// decision — the protocol's safety property is that it is zero — and
	// exits is 1 when the run ended by the root's Exit, not by quiescence
	// detection (this run's own count too). shm_coalesced counts the
	// frames staged behind an in-flight shm ring write and flushed in one
	// combined pass, shm_declined the edges this rank wanted on shared
	// memory that stayed on TCP; puts_direct / puts_framed split the
	// cross-rank CkDirect puts it sent into arena deposits and FPut
	// frames.
	CntNetConnsOpened   = "net.conns_opened"
	CntNetConnsDialed   = "net.conns_dialed"
	CntNetConnsAccepted = "net.conns_accepted"
	CntNetDialReqs      = "net.dial_reqs"
	CntNetProbeRounds   = "net.term_probe_rounds"
	CntNetProbeReports  = "net.term_probe_reports"
	CntNetEventRounds   = "net.term_event_rounds"
	CntNetTickRounds    = "net.term_tick_rounds"
	CntNetNudges        = "net.term_nudges"
	CntNetAfterHalt     = "net.frames_after_halt"
	CntNetExits         = "net.exits"
	CntNetShmCoalesced  = "net.shm_coalesced"
	CntNetShmDeclined   = "net.shm_declined"
	CntNetPutsDirect    = "net.puts_direct"
	CntNetPutsFramed    = "net.puts_framed"
)

// Recorder accumulates named statistics. The zero value is not usable;
// call NewRecorder. It is safe for concurrent use, and under the live
// backends every PE goroutine of a process records into the same
// instance. The per-message and per-put sites therefore update their
// counters through pre-registered handles (Counter): one atomic add on a
// per-PE, cache-line-padded slot, where a shared mutex and map would
// bounce one cache line between the PEs' cores on every operation. Incr
// is the by-name path for sites off the hot path, under the mutex like
// times and series. A name's by-name total and its slots are one
// counter to every reader.
type Recorder struct {
	enabled bool
	// The pad keeps enabled, which every handle update reads, off the
	// line that mu's writers dirty.
	_ [cacheLine]byte

	mu       sync.Mutex
	counters map[string]int64 // by-name updates
	blocks   []block          // handle storage
	times    map[string]sim.Time
	series   map[string][]float64
}

// NewRecorder returns an enabled recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		counters: make(map[string]int64),
		times:    make(map[string]sim.Time),
		series:   make(map[string][]float64),
		enabled:  true,
	}
}

// SetEnabled toggles recording. A disabled recorder drops all updates,
// letting hot paths keep unconditional instrumentation calls.
func (r *Recorder) SetEnabled(on bool) { r.enabled = on }

// Incr adds delta to the named counter.
func (r *Recorder) Incr(name string, delta int64) {
	if r == nil || !r.enabled {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Count returns the value of a counter (zero if never incremented).
func (r *Recorder) Count(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.counters[name]
	for _, b := range r.blocks {
		if b.name == name {
			n, _ := b.sum()
			v += n
		}
	}
	return v
}

// AddTime accumulates virtual time into the named bucket. The benchmark
// harness divides these buckets by message counts to report per-operation
// cost components.
func (r *Recorder) AddTime(name string, d sim.Time) {
	if r == nil || !r.enabled {
		return
	}
	r.mu.Lock()
	r.times[name] += d
	r.mu.Unlock()
}

// Time returns the accumulated virtual time of a bucket.
func (r *Recorder) Time(name string) sim.Time {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.times[name]
}

// Observe appends a sample to the named series.
func (r *Recorder) Observe(name string, v float64) {
	if r == nil || !r.enabled {
		return
	}
	r.mu.Lock()
	r.series[name] = append(r.series[name], v)
	r.mu.Unlock()
}

// Series returns the raw samples of a series (nil if absent).
func (r *Recorder) Series(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.series[name]
}

// Counters returns a snapshot copy of all counters. Determinism tests
// compare two runs' snapshots wholesale.
func (r *Recorder) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.countersLocked()
}

// countersLocked snapshots every counter updated since the recorder was
// made or last Reset; a registered handle alone adds no name.
func (r *Recorder) countersLocked() map[string]int64 {
	out := make(map[string]int64, len(r.counters))
	for n, v := range r.counters {
		out[n] = v
	}
	for _, b := range r.blocks {
		if v, ok := b.sum(); ok {
			out[b.name] += v
		}
	}
	return out
}

// Reset clears all accumulated state but preserves the enabled flag.
// Counter handles stay valid: their slots are zeroed in place.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = make(map[string]int64)
	for _, b := range r.blocks {
		b.clear()
	}
	r.times = make(map[string]sim.Time)
	r.series = make(map[string][]float64)
}

// Summary holds order statistics of a series.
type Summary struct {
	N              int
	Min, Max, Mean float64
	P50, P90, P99  float64
}

// Summarize computes order statistics for the named series. It returns a
// zero Summary when the series is empty.
func (r *Recorder) Summarize(name string) Summary {
	s := r.Series(name)
	if len(s) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(s))
	copy(sorted, s)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	q := func(p float64) float64 {
		idx := int(p * float64(len(sorted)-1))
		return sorted[idx]
	}
	return Summary{
		N:    len(sorted),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
		Mean: sum / float64(len(sorted)),
		P50:  q(0.50),
		P90:  q(0.90),
		P99:  q(0.99),
	}
}

// String renders all counters and time buckets sorted by name, one per
// line — convenient for golden-ish debugging output.
func (r *Recorder) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	counts := r.countersLocked()
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "count %-32s %d\n", n, counts[n])
	}
	names = names[:0]
	for n := range r.times {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "time  %-32s %v\n", n, r.times[n])
	}
	return b.String()
}
