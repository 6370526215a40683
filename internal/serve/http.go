package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
)

// maxBodyBytes bounds a submission body; specs are small.
const maxBodyBytes = 1 << 16

// Handler builds the daemon's HTTP API:
//
//	POST /jobs          submit a Spec; 202 + job, 400 bad spec, 429 overloaded
//	GET  /jobs          list the stored jobs (all unfinished + the last 256 finished)
//	GET  /jobs/{id}     one job's state and outcomes; 404 kind "evicted" once it aged out
//	GET  /jobs/{id}/wait?timeout=30s   long-poll for completion
//	GET  /stream        NDJSON stream of finished jobs as they complete
//	GET  /metrics       serve.* counters + pool/cumulative run counters
//	GET  /healthz       liveness + world shape
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJob)
	mux.HandleFunc("/stream", s.handleStream)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

type apiError struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.List())
	case http.MethodPost:
		var spec Spec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error(), Kind: "bad_spec"})
			return
		}
		job, err := s.Submit(spec)
		var overload *ErrOverloaded
		var bad *ErrBadSpec
		switch {
		case errors.As(err, &overload):
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error(), Kind: "overloaded"})
		case errors.As(err, &bad):
			writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error(), Kind: "bad_spec"})
		case err != nil:
			writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error(), Kind: "internal"})
		default:
			writeJSON(w, http.StatusAccepted, job)
		}
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	idStr, tail, _ := strings.Cut(rest, "/")
	id, err := strconv.ParseInt(idStr, 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad job id", Kind: "bad_request"})
		return
	}
	switch tail {
	case "":
		job, ok := s.Get(id)
		if !ok {
			s.writeNoJob(w, id)
			return
		}
		writeJSON(w, http.StatusOK, job)
	case "wait":
		timeout := 30 * time.Second
		if t := r.URL.Query().Get("timeout"); t != "" {
			d, err := time.ParseDuration(t)
			if err != nil || d <= 0 || d > 10*time.Minute {
				writeJSON(w, http.StatusBadRequest, apiError{Error: "bad timeout", Kind: "bad_request"})
				return
			}
			timeout = d
		}
		job, final := s.Wait(id, timeout)
		if job.ID == 0 {
			s.writeNoJob(w, id)
			return
		}
		if !final {
			writeJSON(w, http.StatusAccepted, job)
			return
		}
		writeJSON(w, http.StatusOK, job)
	default:
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such endpoint", Kind: "not_found"})
	}
}

// writeNoJob answers a lookup that found no record: the job either never
// existed or finished long enough ago to have been evicted.
func (s *Server) writeNoJob(w http.ResponseWriter, id int64) {
	if s.wasEvicted(id) {
		writeJSON(w, http.StatusNotFound, apiError{
			Error: fmt.Sprintf("job %d finished and its record was evicted (the last %d finished jobs are kept)", id, maxFinishedJobs),
			Kind:  "evicted"})
		return
	}
	writeJSON(w, http.StatusNotFound, apiError{Error: "no such job", Kind: "not_found"})
}

// handleStream replays already-finished jobs, then streams completions
// as NDJSON until the client goes away or the server closes.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, apiError{Error: "streaming unsupported", Kind: "internal"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	c, cancel := s.Subscribe()
	defer cancel()
	// Replay after subscribing so a job finishing in between is not
	// lost; the ID guard below drops the overlap.
	var replayed int64
	for _, job := range s.List() {
		if job.State == StateDone || job.State == StateFailed {
			enc.Encode(job)
			if job.ID > replayed {
				replayed = job.ID
			}
		}
	}
	fl.Flush()
	for {
		select {
		case job, ok := <-c:
			if !ok {
				return
			}
			if job.ID <= replayed {
				continue
			}
			enc.Encode(job)
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-s.closed:
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	world, rank := 1, 0
	if n := s.opts.Env.Net; n != nil {
		world, rank = n.World(), n.Rank()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":      true,
		"backend": s.opts.Env.Backend.String(),
		"world":   world,
		"rank":    rank,
		"kinds":   Kinds(),
		"uptime":  time.Since(s.started).String(),
	})
}

// handleMetrics renders the counters in a flat "name value" text form.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var b strings.Builder
	fmt.Fprintf(&b, "serve.queue.depth %d\n", atomic.LoadInt64(&s.depth))
	fmt.Fprintf(&b, "serve.queue.cap %d\n", s.opts.QueueDepth)
	fmt.Fprintf(&b, "serve.admitted %d\n", atomic.LoadInt64(&s.admitted))
	fmt.Fprintf(&b, "serve.rejected.overload %d\n", atomic.LoadInt64(&s.rejected))
	fmt.Fprintf(&b, "serve.rejected.badspec %d\n", atomic.LoadInt64(&s.badSpec))
	fmt.Fprintf(&b, "serve.jobs.done %d\n", atomic.LoadInt64(&s.jobsDone))
	fmt.Fprintf(&b, "serve.jobs.failed %d\n", atomic.LoadInt64(&s.jobsFail))
	fmt.Fprintf(&b, "serve.jobs_evicted %d\n", atomic.LoadInt64(&s.evicted))
	fmt.Fprintf(&b, "serve.uptime_seconds %.0f\n", time.Since(s.started).Seconds())

	s.mu.Lock()
	kindNames := make([]string, 0, len(s.lat))
	for k := range s.lat {
		kindNames = append(kindNames, k)
	}
	sort.Strings(kindNames)
	for _, k := range kindNames {
		l := s.lat[k]
		fmt.Fprintf(&b, "serve.job.%s.count %d\n", k, l.count)
		fmt.Fprintf(&b, "serve.job.%s.failed %d\n", k, l.errs)
		fmt.Fprintf(&b, "serve.job.%s.latency_ms.sum %.3f\n", k, l.sumMS)
		fmt.Fprintf(&b, "serve.job.%s.latency_ms.min %.3f\n", k, l.minMS)
		fmt.Fprintf(&b, "serve.job.%s.latency_ms.max %.3f\n", k, l.maxMS)
		for i, bound := range latBounds {
			fmt.Fprintf(&b, "serve.job.%s.latency_ms.le_%g %d\n", k, bound, l.buckets[i])
		}
		fmt.Fprintf(&b, "serve.job.%s.latency_ms.le_inf %d\n", k, l.buckets[len(latBounds)])
	}
	cumNames := make([]string, 0, len(s.cum))
	for name := range s.cum {
		cumNames = append(cumNames, name)
	}
	sort.Strings(cumNames)
	for _, name := range cumNames {
		fmt.Fprintf(&b, "run.%s %d\n", name, s.cum[name])
	}
	s.mu.Unlock()

	ps := bufpool.Default.Stats()
	fmt.Fprintf(&b, "pool.live.gets %d\n", ps.Gets)
	fmt.Fprintf(&b, "pool.live.puts %d\n", ps.Puts)
	fmt.Fprintf(&b, "pool.live.misses %d\n", ps.Misses)
	fmt.Fprintf(&b, "pool.live.oversize %d\n", ps.Oversize)
	fmt.Fprintf(&b, "pool.live.dropped %d\n", ps.Dropped)
	w.Write([]byte(b.String()))
}
