package serve

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/charm"
)

// ErrOverloaded is the typed admission rejection: the queue is at
// capacity. HTTP maps it to 429 with a Retry-After hint.
type ErrOverloaded struct {
	Depth int
}

func (e *ErrOverloaded) Error() string {
	return fmt.Sprintf("serve: queue full (%d jobs deep); retry later", e.Depth)
}

// ErrBadSpec is the typed admission rejection for an invalid job spec.
// HTTP maps it to 400.
type ErrBadSpec struct {
	Err error
}

func (e *ErrBadSpec) Error() string { return "serve: bad spec: " + e.Err.Error() }
func (e *ErrBadSpec) Unwrap() error { return e.Err }

// Options configures the daemon core.
type Options struct {
	// Env is the warmed execution environment (backend, node, platform).
	Env Env
	// QueueDepth bounds the admission queue (default 16). Submissions
	// beyond it are rejected with ErrOverloaded.
	QueueDepth int
	// Attempts is the per-job recovery budget under net (default
	// charm.DefaultRecoveryAttempts).
	Attempts int
	// ReportWait bounds how long rank 0 waits for worker job reports
	// after its own run completes (default 60s).
	ReportWait time.Duration
	// Parallel is the executor width. It must be 1 under net (one run
	// generation at a time crosses the mesh); the real backend may run
	// jobs concurrently, each on its own scheduler over the shared
	// warmed pools.
	Parallel int
}

// maxFinishedJobs bounds the job store: the records of the most recent
// maxFinishedJobs finished jobs stay queryable, older ones are evicted
// as new ones finish. A record holds two Outcomes with full counter
// maps, and a daemon that serves a job every two milliseconds would
// otherwise grow by tens of MB a minute (38 → 56 MB peak RSS and a p95
// up from 6.8 to 10 ms over one 15 s benchmark block). Queued and
// running jobs are never evicted, and the cumulative serve.* and
// latency counters do not depend on the store.
const maxFinishedJobs = 256

// Server is the rank-0 daemon core: the admission queue, the job store,
// the executor, and the serve.* counters. Worker ranks run Follow
// instead.
type Server struct {
	opts Options

	mu       sync.Mutex
	jobs     map[int64]*Job
	order    []int64 // stored jobs, submission order
	finished []int64 // stored finished jobs, completion order (eviction queue)
	subs     map[int]chan Job
	nextSub  int
	cum      map[string]int64
	lat      map[string]*latStats
	doneCh   map[int64]chan struct{}

	nextID    int64
	admitted  int64
	rejected  int64
	badSpec   int64
	jobsDone  int64
	jobsFail  int64
	evicted   int64
	depth     int64
	started   time.Time
	queue     chan *Job
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// latStats is a fixed-bucket latency histogram plus running moments,
// per job kind.
type latStats struct {
	count, errs         int64
	sumMS, minMS, maxMS float64
	buckets             [len(latBounds) + 1]int64
}

// latBounds are the histogram upper bounds in milliseconds.
var latBounds = [...]float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000}

func (l *latStats) observe(ms float64, failed bool) {
	l.count++
	if failed {
		l.errs++
	}
	l.sumMS += ms
	if l.count == 1 || ms < l.minMS {
		l.minMS = ms
	}
	if ms > l.maxMS {
		l.maxMS = ms
	}
	for i, b := range latBounds {
		if ms <= b {
			l.buckets[i]++
			return
		}
	}
	l.buckets[len(latBounds)]++
}

// New builds and starts the daemon core. Under net the caller must be
// rank 0 (workers run Follow) with Parallel 1.
func New(opts Options) (*Server, error) {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 16
	}
	if opts.Attempts <= 0 {
		opts.Attempts = charm.DefaultRecoveryAttempts
	}
	if opts.ReportWait <= 0 {
		opts.ReportWait = 60 * time.Second
	}
	if opts.Parallel <= 0 {
		opts.Parallel = 1
	}
	if opts.Env.Net != nil {
		if opts.Env.Net.IsWorker() {
			return nil, fmt.Errorf("serve: the server runs on rank 0; workers run Follow")
		}
		if opts.Parallel != 1 {
			return nil, fmt.Errorf("serve: net backend runs one job at a time (one run generation crosses the mesh); Parallel must be 1")
		}
	}
	s := &Server{
		opts:    opts,
		jobs:    make(map[int64]*Job),
		subs:    make(map[int]chan Job),
		cum:     make(map[string]int64),
		lat:     make(map[string]*latStats),
		doneCh:  make(map[int64]chan struct{}),
		queue:   make(chan *Job, opts.QueueDepth),
		closed:  make(chan struct{}),
		started: time.Now(),
	}
	for i := 0; i < opts.Parallel; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s, nil
}

// Close stops the executors after the in-flight jobs finish. Queued
// jobs that never started stay queued in the store. It does not touch
// the mesh — the node belongs to the caller.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.closed) })
	s.wg.Wait()
}

// Submit validates and enqueues one job. The returned Job is a
// snapshot; poll Get or block on Wait for progress.
func (s *Server) Submit(spec Spec) (Job, error) {
	if err := Normalize(s.opts.Env, &spec); err != nil {
		atomic.AddInt64(&s.badSpec, 1)
		return Job{}, &ErrBadSpec{Err: err}
	}
	job := &Job{
		Spec:      spec,
		State:     StateQueued,
		Submitted: time.Now(),
	}
	s.mu.Lock()
	s.nextID++
	job.ID = s.nextID
	select {
	case s.queue <- job:
	default:
		// A rejected submission leaves no record, so it must not consume
		// an id either: wasEvicted reads every unstored id up to nextID as
		// a job that ran.
		s.nextID--
		s.mu.Unlock()
		atomic.AddInt64(&s.rejected, 1)
		return Job{}, &ErrOverloaded{Depth: s.opts.QueueDepth}
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.doneCh[job.ID] = make(chan struct{})
	snap := snapshot(job)
	s.mu.Unlock()
	atomic.AddInt64(&s.admitted, 1)
	atomic.AddInt64(&s.depth, 1)
	return snap, nil
}

// Get returns a snapshot of one job.
func (s *Server) Get(id int64) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return snapshot(j), true
}

// wasEvicted reports whether id named a job whose record has since been
// dropped from the bounded store (see maxFinishedJobs).
func (s *Server) wasEvicted(id int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, stored := s.jobs[id]
	return !stored && id >= 1 && id <= s.nextID
}

// List returns snapshots of every stored job in submission order.
func (s *Server) List() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, snapshot(s.jobs[id]))
	}
	return out
}

// Wait blocks until the job finishes or the timeout passes, returning
// the latest snapshot and whether it is final.
func (s *Server) Wait(id int64, timeout time.Duration) (Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Job{}, false
	}
	done := s.doneCh[id]
	s.mu.Unlock()
	if done != nil {
		select {
		case <-done:
		case <-time.After(timeout):
		case <-s.closed:
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := snapshot(j)
	return snap, snap.State == StateDone || snap.State == StateFailed
}

// Subscribe registers a completion stream: every finished job's
// snapshot is delivered on the channel (buffered; a wedged consumer
// misses snapshots rather than blocking the executor). cancel
// unregisters and closes it.
func (s *Server) Subscribe() (<-chan Job, func()) {
	c := make(chan Job, 64)
	s.mu.Lock()
	s.nextSub++
	id := s.nextSub
	s.subs[id] = c
	s.mu.Unlock()
	cancel := func() {
		s.mu.Lock()
		if cc, ok := s.subs[id]; ok {
			delete(s.subs, id)
			close(cc)
		}
		s.mu.Unlock()
	}
	return c, cancel
}

// snapshot deep-copies a job record. Callers hold s.mu.
func snapshot(j *Job) Job {
	out := *j
	if j.Local != nil {
		l := *j.Local
		out.Local = &l
	}
	out.Workers = append([]Outcome(nil), j.Workers...)
	return out
}

// executor drains the queue, one job at a time per worker.
func (s *Server) executor() {
	defer s.wg.Done()
	for {
		select {
		case <-s.closed:
			return
		case job := <-s.queue:
			atomic.AddInt64(&s.depth, -1)
			s.runJob(job)
		}
	}
}

// runJob executes one job to completion, with recovery under net.
func (s *Server) runJob(job *Job) {
	s.mu.Lock()
	job.State = StateRunning
	job.Started = time.Now()
	s.mu.Unlock()

	env := s.opts.Env
	var local Outcome
	var workers []Outcome
	var jobErr error
	job.Spec.PrepareKill(env)

	if env.Net != nil && env.Net.World() > 1 {
		specJSON, err := json.Marshal(job.Spec)
		if err != nil {
			jobErr = fmt.Errorf("encode spec: %w", err)
		} else {
			// The announce rides inside the retry closure: after a rank
			// death and Rejoin, the respawned worker's follower starts
			// with an empty job history and needs the spec again, while
			// survivors drop the duplicate by sequence number.
			errs := charm.RunWithRecovery(env.Net, s.opts.Attempts, func() []error {
				env.Net.BroadcastJob(job.ID, specJSON)
				var raw []error
				local, raw = Execute(env, job.Spec)
				return raw
			})
			if len(errs) > 0 {
				local.OK = false
				local.Errors = errStrings(errs)
			}
			workers, jobErr = s.collectReports(job.ID)
		}
	} else {
		local, _ = Execute(env, job.Spec)
	}

	s.finishJob(job, local, workers, jobErr)
}

// collectReports waits for one FJobDone per worker rank for this job
// sequence, bounded by ReportWait. Reports for other sequences are
// stale traffic from aborted attempts and are dropped.
func (s *Server) collectReports(seq int64) ([]Outcome, error) {
	node := s.opts.Env.Net
	want := node.World() - 1
	got := make(map[int]Outcome, want)
	deadline := time.NewTimer(s.opts.ReportWait)
	defer deadline.Stop()
	frames := node.JobFrames()
	for len(got) < want {
		select {
		case jf := <-frames:
			if !jf.Done || jf.Seq != seq {
				continue
			}
			var o Outcome
			if err := json.Unmarshal(jf.Payload, &o); err != nil {
				o = Outcome{Rank: jf.Rank, OK: false,
					Errors: []string{fmt.Sprintf("undecodable report: %v", err)}}
			}
			o.Rank = jf.Rank
			got[jf.Rank] = o
		case <-deadline.C:
			missing := make([]int, 0, want)
			for r := 1; r < node.World(); r++ {
				if _, ok := got[r]; !ok {
					missing = append(missing, r)
				}
			}
			return flattenReports(got), fmt.Errorf(
				"no job report from ranks %v within %v", missing, s.opts.ReportWait)
		case <-s.closed:
			return flattenReports(got), fmt.Errorf("server closed while collecting job reports")
		}
	}
	return flattenReports(got), nil
}

func flattenReports(got map[int]Outcome) []Outcome {
	out := make([]Outcome, 0, len(got))
	for _, o := range got {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// finishJob records the result, rolls the counters and notifies
// waiters and subscribers.
func (s *Server) finishJob(job *Job, local Outcome, workers []Outcome, jobErr error) {
	ok := local.OK && jobErr == nil
	for _, w := range workers {
		if !w.OK {
			ok = false
		}
	}

	s.mu.Lock()
	job.Local = &local
	job.Workers = workers
	job.Finished = time.Now()
	if jobErr != nil {
		job.Error = jobErr.Error()
	}
	if ok {
		job.State = StateDone
	} else {
		job.State = StateFailed
	}
	for name, v := range local.Counters {
		s.cum[name] += v
	}
	for _, w := range workers {
		for name, v := range w.Counters {
			s.cum[name] += v
		}
	}
	ls := s.lat[job.Spec.Kind]
	if ls == nil {
		ls = &latStats{}
		s.lat[job.Spec.Kind] = ls
	}
	ls.observe(float64(job.Finished.Sub(job.Started))/float64(time.Millisecond), !ok)
	snap := snapshot(job)
	done := s.doneCh[job.ID]
	delete(s.doneCh, job.ID)
	s.finished = append(s.finished, job.ID)
	if len(s.finished) > maxFinishedJobs {
		old := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.jobs, old)
		s.order = slices.DeleteFunc(s.order, func(id int64) bool { return id == old })
		atomic.AddInt64(&s.evicted, 1)
	}
	subs := make([]chan Job, 0, len(s.subs))
	for _, c := range s.subs {
		subs = append(subs, c)
	}
	s.mu.Unlock()

	if ok {
		atomic.AddInt64(&s.jobsDone, 1)
	} else {
		atomic.AddInt64(&s.jobsFail, 1)
	}
	if done != nil {
		close(done)
	}
	for _, c := range subs {
		select {
		case c <- snap:
		default: // wedged subscriber loses this snapshot
		}
	}
}
