// Package serve is the long-lived job-serving runtime over the warmed
// mesh: boot the world once, keep peers dialed, CkDirect machinery
// registered and buffer pools hot, and run a stream of jobs against it
// instead of paying the boot cost per run.
//
// The daemon (cmd/ckserve) is SPMD like every other net-backend
// program: rank 0 owns the HTTP API, the admission queue and the job
// sequence; worker ranks run a follower loop that executes every
// announced job with the identical spec. Per-job isolation comes from
// the run-generation machinery — each job is its own generation on the
// reused mesh, so a failed or chaos-killed job aborts cleanly without
// poisoning the next one — and RunWithRecovery turns a rank death
// mid-job into a mesh rebuild plus rerun rather than a dead daemon.
package serve

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/chaos"
)

// Spec is one job request: a registered kind plus its parameters. The
// canonical JSON encoding of a normalized Spec is what rank 0
// broadcasts, so every rank executes bit-identical configuration.
type Spec struct {
	// Kind names the registered workload: pingpong, stencil, matmul, fem.
	Kind string `json:"kind"`
	// Mode is the transport: "msg" or "ckd" (default).
	Mode string `json:"mode,omitempty"`
	// PEs is the processing-element count (stencil/matmul/fem; pingpong
	// derives its own placement). Under net it is at least the world's
	// rank count; it defaults to twice that (stencil, fem) or to the
	// larger of 4 and the rank count (matmul).
	PEs int `json:"pes,omitempty"`
	// Iters/Warmup are measured and warmup iterations.
	Iters  int `json:"iters,omitempty"`
	Warmup int `json:"warmup,omitempty"`
	// Validate moves real data and checks against the serial oracles.
	Validate bool `json:"validate,omitempty"`
	// Size is the pingpong payload in bytes.
	Size int `json:"size,omitempty"`
	// NX, NY, NZ are the stencil domain (3-D) or fem quad grid (2-D).
	NX int `json:"nx,omitempty"`
	NY int `json:"ny,omitempty"`
	NZ int `json:"nz,omitempty"`
	// Virtualization is the chares-per-PE target (stencil/fem).
	Virtualization int `json:"vr,omitempty"`
	// N is the matmul matrix edge.
	N int `json:"n,omitempty"`
	// Kill fires the kill -9 chaos tier mid-job: "RANK@STEP" (net
	// backend only). The daemon recovers and the job retries.
	Kill string `json:"kill,omitempty"`
	// LBEvery runs a measurement-based load-balancing round every
	// LBEvery reduction barriers, LBStrategy names the rebalancer
	// (default "greedy" when LBEvery is set), and Skew makes the first
	// half of the chare order perform Skew times extra compute so the
	// balancer has something to move (stencil only).
	LBEvery    int     `json:"lb_every,omitempty"`
	LBStrategy string  `json:"lb_strategy,omitempty"`
	Skew       float64 `json:"skew,omitempty"`

	// chaosKill is Kill parsed once per job by PrepareKill. One object
	// must span all recovery attempts: Kill.Fire is one-shot per
	// object, so the rerun after a Rejoin does not re-kill the freshly
	// respawned worker.
	chaosKill *chaos.Kill
}

// Outcome is one rank's result for one job. Under the real backend
// there is a single outcome; under net, rank 0 aggregates one per rank.
type Outcome struct {
	Rank int  `json:"rank"`
	OK   bool `json:"ok"`
	// Errors are the run's failures, stringified for the wire.
	Errors []string `json:"errors,omitempty"`
	// Metric is the kind's headline number in microseconds (pingpong
	// RTT, others per-iteration time); zero on worker ranks, whose
	// barriers live on rank 0.
	Metric float64 `json:"metric_us,omitempty"`
	// Checksum digests the rank's validate-mode payload (hosted field /
	// product bytes, NaN markers included). The same job resubmitted
	// must reproduce it bit-identically, before or after a rank death.
	Checksum string `json:"checksum,omitempty"`
	// ElapsedMS is the wall-clock job time on this rank.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Counters is the run's trace-counter snapshot (mem.*/pool.*/...).
	Counters map[string]int64 `json:"counters,omitempty"`
}

// State is a job's position in its lifecycle.
type State string

// Lifecycle states.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Job is the daemon-side record of one submission.
type Job struct {
	ID        int64     `json:"id"`
	Spec      Spec      `json:"spec"`
	State     State     `json:"state"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
	// Local is this process's outcome (rank 0 under net).
	Local *Outcome `json:"local,omitempty"`
	// Workers are the other ranks' reported outcomes (net only).
	Workers []Outcome `json:"workers,omitempty"`
	// Error is the admission- or aggregation-level failure, if any.
	Error string `json:"error,omitempty"`
}

// checksumF64 digests a float64 slice bit-for-bit (FNV-1a over the
// little-endian IEEE words, NaNs included) so validate-mode payloads
// can be compared across job runs without shipping the data.
func checksumF64(vals []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
