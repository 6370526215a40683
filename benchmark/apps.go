package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/apps/stencil"
	"repro/internal/charm"
	"repro/internal/netmodel"
	"repro/internal/serve"
)

// The two workloads that run the repo's own stencil app rather than
// harness-owned chares. Their halo faces are real and validated by the
// app itself; a block's limit counts samples (Runs or jobs) here.

// Span names of the app workloads' traced pass.
const (
	spanStencilRun  = "apps.stencil.run"
	spanServeSubmit = "serve.submit"
	spanServeWait   = "serve.wait"
)

func (l blockLimit) done(start time.Time, samples int) bool {
	return (l.dur > 0 && time.Since(start) >= l.dur) || (l.ops > 0 && samples >= l.ops)
}

// stencilRunner is stencil-shm: internal/apps/stencil 32x32x16 on 8
// chares over 2 shm ranks, validated against the serial reference. One
// sample is the IterTime of one Run (3 measured iterations after 1
// warm-up); an op is one iteration.
type stencilRunner struct {
	w *world
}

const (
	stencilIters  = 3
	stencilWarmup = 1
)

func stencilConfig(mode stencil.Mode) stencil.Config {
	return stencil.Config{
		Platform: netmodel.AbeIB, Mode: mode,
		PEs: numPEs, Virtualization: 4,
		NX: 32, NY: 32, NZ: 16,
		Iters: stencilIters, Warmup: stencilWarmup,
		Validate: true,
	}
}

func stencilMode(a arm) stencil.Mode {
	if a == armCkd {
		return stencil.Ckd
	}
	return stencil.Msg
}

func (r *stencilRunner) setup(seed uint64) (err error) {
	r.w, err = bootWorld(onShm, seed)
	return err
}

func (r *stencilRunner) warmLimit() blockLimit  { return blockLimit{ops: 2} }
func (r *stencilRunner) smokeLimit() blockLimit { return blockLimit{ops: 1} }
func (r *stencilRunner) world() *world          { return r.w }
func (r *stencilRunner) close()                 { r.w.close() }

func (r *stencilRunner) block(a arm, lim blockLimit) blockResult {
	cfg := stencilConfig(stencilMode(a))
	cfg.Backend = charm.NetBackend
	out := blockResult{counters: make(map[string]int64)}
	var tr *tracer
	if lim.traced {
		tr = newTracer()
	}
	snap0 := snapRes(true)
	start := time.Now()
	for !lim.done(start, len(out.samples)) {
		results := make([]stencil.Result, len(r.w.nodes))
		rankSpan := make([][2]int64, len(r.w.nodes))
		var t0 int64
		if tr != nil {
			t0 = tr.now()
		}
		var wg sync.WaitGroup
		for i, n := range r.w.nodes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := cfg
				c.Net = n
				if tr != nil {
					rankSpan[i][0] = tr.now()
				}
				results[i] = stencil.Run(c)
				if tr != nil {
					rankSpan[i][1] = tr.now()
				}
			}()
		}
		wg.Wait()
		if tr != nil {
			op := int64(len(out.samples) + 1)
			root := tr.add(spanOp, op, 0, 0, 0, t0, tr.now())
			for rank, rs := range rankSpan {
				tr.add(spanStencilRun, op, root, 0, rank, rs[0], rs[1])
			}
		}
		out.attempted += stencilIters
		bad := false
		for rank, res := range results {
			for _, err := range res.Errors {
				bad = true
				fmt.Fprintf(logw, "  FAIL stencil-shm/%v rank %d: %v\n", a, rank, err)
			}
			for k, v := range res.Counters {
				out.counters[k] += v
			}
		}
		if bad {
			out.failed += stencilIters
		}
		out.ops += stencilIters
		out.runs++
		out.counterOps += stencilIters + stencilWarmup
		out.samples = append(out.samples, results[0].IterTime.Micros())
	}
	out.res = snapRes(true).since(snap0)
	if tr != nil {
		out.spans = tr.spans
	}
	return out
}

// serveRunner is serve-shm: serve.Server on a warmed 2-rank mesh behind
// Server.Handler() on loopback, one keep-alive client, one validated
// stencil job in flight at a time.
type serveRunner struct {
	w         *world
	srv       *serve.Server
	httpSrv   *http.Server
	served    chan struct{}
	followers sync.WaitGroup
	client    *http.Client
	base      string
	first     map[int]string // per-rank checksum of the first job
	rejected  int64

	// Filled by block for the per-layer serve.* metrics.
	submitUS, runMS, overheadMS []float64
}

func (r *serveRunner) env(rank int) serve.Env {
	return serve.Env{Backend: charm.NetBackend, Net: r.w.nodes[rank], Platform: netmodel.AbeIB}
}

func (r *serveRunner) setup(seed uint64) (err error) {
	if r.w, err = bootWorld(onShm, seed); err != nil {
		return err
	}
	for rank := 1; rank < len(r.w.nodes); rank++ {
		r.followers.Add(1)
		go func() {
			defer r.followers.Done()
			if err := serve.Follow(r.env(rank), 0); err != nil {
				fmt.Fprintf(logw, "  serve-shm follower rank %d: %v\n", rank, err)
			}
		}()
	}
	if r.srv, err = serve.New(serve.Options{Env: r.env(0)}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.base = "http://" + ln.Addr().String()
	r.httpSrv = &http.Server{Handler: r.srv.Handler()}
	r.served = make(chan struct{})
	go func() {
		defer close(r.served)
		// Serve returns ErrServerClosed on Shutdown; anything else
		// surfaces as failed requests.
		_ = r.httpSrv.Serve(ln)
	}()
	r.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 2 * time.Minute}
	r.first = nil
	return nil
}

func (r *serveRunner) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = r.httpSrv.Shutdown(ctx) // a straggling connection is closed by the deadline
	<-r.served
	r.client.CloseIdleConnections()
	r.srv.Close()
	serve.AnnounceShutdown(r.env(0))
	r.followers.Wait()
	r.w.close()
}

func (r *serveRunner) warmLimit() blockLimit  { return blockLimit{ops: 2} }
func (r *serveRunner) smokeLimit() blockLimit { return blockLimit{ops: 1} }
func (r *serveRunner) world() *world          { return r.w }

// jobSpec is the job every op submits; only mode varies, with the arm.
func jobSpec(a arm) []byte {
	b, err := json.Marshal(serve.Spec{Kind: "stencil", Mode: a.String(),
		NX: 16, NY: 16, NZ: 8, Virtualization: 2, Iters: 2, Warmup: 1, Validate: true})
	if err != nil {
		panic(err)
	}
	return b
}

// doJSON performs one request on the keep-alive connection and decodes
// the reply into v, returning the status code.
func (r *serveRunner) doJSON(method, url string, body []byte, v any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 {
		err = json.Unmarshal(raw, v)
	}
	return resp.StatusCode, err
}

// runJob submits one job and waits for it; it returns the finished job
// and the time the POST alone took.
func (r *serveRunner) runJob(spec []byte) (job serve.Job, submit time.Duration, err error) {
	t0 := time.Now()
	code, err := r.doJSON(http.MethodPost, r.base+"/jobs", spec, &job)
	submit = time.Since(t0)
	if code == http.StatusTooManyRequests {
		r.rejected++
	}
	if err != nil || code != http.StatusAccepted {
		return job, submit, fmt.Errorf("POST /jobs: status %d: %v", code, err)
	}
	code, err = r.doJSON(http.MethodGet, fmt.Sprintf("%s/jobs/%d/wait?timeout=60s", r.base, job.ID), nil, &job)
	if err != nil || code != http.StatusOK {
		return job, submit, fmt.Errorf("GET /jobs/%d/wait: status %d: %v", job.ID, code, err)
	}
	return job, submit, nil
}

// checkJob verifies a finished job: done, every rank OK, and every
// rank's validate checksum equal to the first job's — in both arms, the
// transports must produce the same field.
func (r *serveRunner) checkJob(job serve.Job) error {
	if job.State != serve.StateDone || job.Local == nil {
		return fmt.Errorf("job %d ended %s: %s", job.ID, job.State, job.Error)
	}
	sums := map[int]string{}
	for _, o := range append([]serve.Outcome{*job.Local}, job.Workers...) {
		if !o.OK {
			return fmt.Errorf("job %d rank %d: %v", job.ID, o.Rank, o.Errors)
		}
		sums[o.Rank] = o.Checksum
	}
	if len(sums) != len(r.w.nodes) {
		return fmt.Errorf("job %d reported %d ranks, world has %d", job.ID, len(sums), len(r.w.nodes))
	}
	if r.first == nil {
		r.first = sums
	}
	for rank, sum := range sums {
		if sum == "" || sum != r.first[rank] {
			return fmt.Errorf("job %d rank %d checksum %q, first job had %q", job.ID, rank, sum, r.first[rank])
		}
	}
	return nil
}

func (r *serveRunner) block(a arm, lim blockLimit) blockResult {
	spec := jobSpec(a)
	out := blockResult{counters: make(map[string]int64)}
	var tr *tracer
	if lim.traced {
		tr = newTracer()
	}
	snap0 := snapRes(true)
	start := time.Now()
	for !lim.done(start, len(out.samples)) {
		var t0 int64
		if tr != nil {
			t0 = tr.now()
		}
		begin := time.Now()
		job, submit, err := r.runJob(spec)
		lat := time.Since(begin)
		if err == nil {
			err = r.checkJob(job)
		}
		out.attempted++
		out.ops++
		out.runs++
		out.counterOps++
		out.samples = append(out.samples, float64(lat)/1e3)
		if err != nil {
			out.failed++
			fmt.Fprintf(logw, "  FAIL serve-shm/%v: %v\n", a, err)
			continue
		}
		r.submitUS = append(r.submitUS, float64(submit)/1e3)
		r.runMS = append(r.runMS, job.Local.ElapsedMS)
		r.overheadMS = append(r.overheadMS, float64(lat)/1e6-job.Local.ElapsedMS)
		for _, o := range append([]serve.Outcome{*job.Local}, job.Workers...) {
			for k, v := range o.Counters {
				out.counters[k] += v
			}
		}
		if tr != nil {
			op := int64(len(out.samples))
			end := tr.now()
			root := tr.add(spanOp, op, 0, 0, 0, t0, end)
			s := tr.add(spanServeSubmit, op, root, 0, 0, t0, t0+int64(submit))
			tr.add(spanServeWait, op, root, s, 0, t0+int64(submit), end)
		}
	}
	out.res = snapRes(true).since(snap0)
	if tr != nil {
		out.spans = tr.spans
	}
	return out
}
