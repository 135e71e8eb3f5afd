// Package service exposes the simulator as a long-lived HTTP/JSON
// service: a bounded job queue with backpressure in front of the
// parallel runner, cross-request dedup of identical configs on the
// runner's content-addressed key, REST endpoints to submit single
// configs or sweep batches and poll their results, Server-Sent-Events
// streams of per-job and per-sweep progress, and operational endpoints
// (/healthz, Prometheus /metrics).
//
// The design-space studies this repo reproduces are embarrassingly
// cacheable: many clients asking for overlapping (benchmark × size ×
// ports × hit-time) points. A shared service amortizes the runner's
// memo and disk cache across all of them — N clients submitting the
// same config cost one simulation — while the queue bounds how much
// work any burst can pile onto the box (full queue = 429 Retry-After,
// the client's cue to back off).
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"hbcache/internal/fault"
	"hbcache/internal/runner"
	"hbcache/internal/sim"
	"hbcache/internal/stats"
)

// Options configure a Service.
type Options struct {
	// QueueSize bounds how many accepted jobs may wait for a worker.
	// A submit that finds the queue full fails with ErrQueueFull (HTTP
	// 429 + Retry-After). Zero selects 64.
	QueueSize int
	// Concurrency is how many jobs execute at once. The runner below
	// has its own worker pool for batch calls, but the service drives
	// it through single-job calls, so this is the effective global
	// simulation concurrency. Zero selects the runner's worker count.
	Concurrency int
	// JobTimeout caps one job's wall time, cancelling its context past
	// the deadline. Zero means no per-job timeout. On the batched drain
	// path (BatchSize > 1) the timeout spans the whole drained batch:
	// lockstep lanes share one clock.
	JobTimeout time.Duration
	// BatchSize, when greater than one, lets each worker drain up to
	// BatchSize queued jobs in one gulp and execute them as a single
	// runner batch call, so a batch-capable runner
	// (runner.Options.BatchSize) steps them in lockstep instead of one
	// at a time. One runs every job alone through RunJob; zero adopts
	// the runner's own batch size, so wiring -batch through the runner
	// is enough.
	BatchSize int
	// RetryAfter is the backoff hint returned with 429 responses.
	// Zero selects one second.
	RetryAfter time.Duration
	// MaxTotalInsts, when non-zero, rejects configs whose
	// prewarm+warmup+measure instruction budget exceeds it — a guard
	// against a single request monopolizing a shared box.
	MaxTotalInsts uint64
	// BreakerThreshold is how many consecutive job failures open the
	// circuit breaker (new submissions answered 503 + Retry-After until
	// a cooldown passes and a half-open probe succeeds). Zero selects
	// 5; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before
	// admitting a single half-open probe. Zero selects 15s.
	BreakerCooldown time.Duration
	// SSEWriteTimeout bounds each SSE write; a subscriber that cannot
	// drain events within it is dropped (it can reconnect and resume
	// via Last-Event-ID) instead of blocking the handler goroutine
	// forever on a dead or stalled peer. Zero selects 30s.
	SSEWriteTimeout time.Duration
	// Faults, when non-nil, is the chaos registry for the service's
	// own fault sites (currently fault.SiteSSEWrite).
	Faults *fault.Registry
	// ClusterStatus, when non-nil, makes this service a coordinator
	// front-end: readiness and /metrics report the worker fleet it
	// returns, and /readyz degrades on its lease-based quorum (Live vs
	// MinWorkers) instead of pinging anyone — the hook must answer from
	// local state only. It keeps the dependency arrow pointing
	// cluster→service: the cluster package imports this one, so the
	// binary injects fleet state here instead of the service importing
	// the cluster.
	ClusterStatus func(ctx context.Context) *ClusterStatus
	// Membership, when non-nil, enables the worker self-registration
	// endpoints (POST /v1/cluster/{register,heartbeat,deregister}),
	// forwarding them to the coordinator behind the same dependency
	// inversion as ClusterStatus.
	Membership ClusterMembership
	// OnSweepAdmitted, when non-nil, is called after a sweep batch is
	// accepted, with its ID and member configs — before the submitter
	// can observe the sweep. The coordinator's write-ahead journal hooks
	// in here; restored sweeps (RestoreSweep) do not re-fire it.
	OnSweepAdmitted func(id string, cfgs []sim.Config)
	// TraceDir roots the content-addressed trace store behind
	// POST /v1/traces — one <digest>.trace file per stored recording.
	// Empty auto-creates a temp directory, removed on Shutdown.
	TraceDir string
	// MaxTraceBytes caps one trace upload's (or upstream fetch's) size;
	// a larger body answers 413. Zero selects DefaultMaxTraceBytes.
	MaxTraceBytes int64
	// TraceFetchURL, when set, is the base URL (a coordinator's) whose
	// GET /v1/traces/{digest} fills local store misses at submit time —
	// how cluster workers pull a coordinator-held trace exactly once.
	TraceFetchURL string
}

func (o Options) withDefaults(r *runner.Runner) Options {
	if o.QueueSize <= 0 {
		o.QueueSize = 64
	}
	if o.Concurrency <= 0 {
		o.Concurrency = r.Workers()
	}
	if o.BatchSize == 0 {
		o.BatchSize = r.BatchSize()
	}
	if o.BatchSize < 1 {
		o.BatchSize = 1
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	switch {
	case o.BreakerThreshold == 0:
		o.BreakerThreshold = 5
	case o.BreakerThreshold < 0:
		o.BreakerThreshold = 0 // disabled
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 15 * time.Second
	}
	if o.SSEWriteTimeout <= 0 {
		o.SSEWriteTimeout = 30 * time.Second
	}
	if o.MaxTraceBytes <= 0 {
		o.MaxTraceBytes = DefaultMaxTraceBytes
	}
	return o
}

// Sentinel errors, mapped onto HTTP statuses by the handler layer.
var (
	// ErrQueueFull means the bounded queue has no room; retry later.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining means the service is shutting down and accepts no
	// new work.
	ErrDraining = errors.New("service: draining, not accepting new jobs")
	// ErrInvalid wraps config validation failures.
	ErrInvalid = errors.New("service: invalid config")
	// ErrNotFound means no job or sweep has the requested id.
	ErrNotFound = errors.New("service: not found")
	// ErrBreakerOpen means the circuit breaker has tripped on
	// consecutive failures; retry after the cooldown.
	ErrBreakerOpen = errors.New("service: circuit breaker open")
)

// breakerState is the circuit breaker's position. The numeric values
// are exported verbatim on /metrics (hbserved_breaker_state).
type breakerState int

const (
	breakerClosed   breakerState = 0
	breakerOpen     breakerState = 1
	breakerHalfOpen breakerState = 2
)

func (b breakerState) String() string {
	switch b {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Event is one entry in a job's or sweep's progress stream. Seq starts
// at 1 and increases by one per event within a stream, so SSE clients
// can detect gaps and resume with Last-Event-ID.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // "state" (job) or "progress" (sweep)

	// State events.
	JobID string `json:"job_id,omitempty"`
	State State  `json:"state,omitempty"`
	Error string `json:"error,omitempty"`

	// Progress events (sweeps): counts of member jobs.
	Done   int `json:"done,omitempty"`
	Failed int `json:"failed,omitempty"`
	Total  int `json:"total,omitempty"`

	// Runner, on progress events, is the runner-wide metrics snapshot
	// taken when the member job finished — cache hits, sims/sec inputs,
	// cumulative sim wall time.
	Runner *runner.Metrics `json:"runner,omitempty"`
}

// JobView is the wire representation of a job.
type JobView struct {
	ID       string      `json:"id"`
	Key      string      `json:"key"`
	State    State       `json:"state"`
	Config   sim.Config  `json:"config"`
	Result   *sim.Result `json:"result,omitempty"`
	Error    string      `json:"error,omitempty"`
	CacheHit bool        `json:"cache_hit,omitempty"`
	MemoHit  bool        `json:"memo_hit,omitempty"`
	WallNs   int64       `json:"wall_ns,omitempty"`
	// Truncated marks a failed job cut down by a deadline or budget
	// rather than by its own error — exactly the jobs that
	// POST /v1/jobs/{id}/resume will accept.
	Truncated bool `json:"truncated,omitempty"`
}

// JobSummary is the compact listing form.
type JobSummary struct {
	ID        string `json:"id"`
	State     State  `json:"state"`
	Benchmark string `json:"benchmark"`
	Key       string `json:"key"`
}

// SweepView is the wire representation of a sweep batch. JobIDs is
// parallel to the submitted configs; configs that deduplicated onto the
// same job repeat its id. Total counts distinct member jobs.
type SweepView struct {
	ID     string   `json:"id"`
	Total  int      `json:"total"`
	Done   int      `json:"done"`
	Failed int      `json:"failed"`
	JobIDs []string `json:"job_ids"`
	// Truncated reports that at least one member job was cut short by a
	// deadline or budget rather than failing on its own terms: the
	// sweep's completed points are valid, but coverage is partial.
	Truncated bool `json:"truncated"`
}

// SweepPoint is one submitted config's outcome within a sweep, in
// submission order (deduplicated configs repeat their shared job).
type SweepPoint struct {
	JobID  string      `json:"job_id"`
	State  State       `json:"state"`
	Config sim.Config  `json:"config"`
	Result *sim.Result `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// SweepResults is the partial-or-complete result set of a sweep. It is
// always retrievable with HTTP 200 — a sweep that hit its deadline
// degrades to the points that finished, flagged Truncated, rather than
// becoming an error.
type SweepResults struct {
	ID        string       `json:"id"`
	Total     int          `json:"total"`
	Done      int          `json:"done"`
	Failed    int          `json:"failed"`
	Complete  bool         `json:"complete"`
	Truncated bool         `json:"truncated"`
	Points    []SweepPoint `json:"points"`
}

// job is the service's mutable record of one submission; all fields
// are guarded by Service.mu.
type job struct {
	id        string
	key       string
	cfg       sim.Config
	state     State
	res       *sim.Result
	errMsg    string
	cacheHit  bool
	memoHit   bool
	deadlined bool // failed because a deadline/budget cut it short
	wall      time.Duration
	events    []Event
	watchers  map[int]chan struct{}
	nextWatch int
	sweeps    []*sweep
}

type sweep struct {
	id        string
	jobIDs    []string
	total     int
	done      int
	failed    int
	deadlined int // members of failed that were deadline-truncated
	events    []Event
	watchers  map[int]chan struct{}
	nextWatch int
}

// Service owns the queue, the dedup index, and the job store.
type Service struct {
	opts Options
	run  *runner.Runner
	// storeSrv serves the runner's result store over HTTP when the
	// runner has one — the shared-store side of the cluster fabric.
	storeSrv *runner.StoreServer
	// traces is the content-addressed store behind POST /v1/traces and
	// submit-time trace resolution.
	traces *traceStore

	baseCtx context.Context
	cancel  context.CancelFunc
	// closed is closed once Shutdown has drained everything; SSE
	// streams select on it so a shutdown unblocks idle clients.
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	unsub     func()

	mu          sync.Mutex
	jobs        map[string]*job
	order       []string
	byKey       map[string]*job
	sweeps      map[string]*sweep
	sweepOrder  []string
	queue       chan *job
	draining    bool
	nextJob     int
	nextSweep   int
	running     int
	submitted   uint64
	deduped     uint64
	rejected    uint64
	doneJobs    uint64
	failedJobs  uint64
	resumedJobs uint64
	latency     *stats.LatencyHistogram
	lastRunner  runner.Metrics

	// Circuit breaker state, all under mu.
	breaker         breakerState
	consecFails     int
	breakerOpenedAt time.Time
	breakerOpens    uint64
	probing         bool // a half-open probe job is in flight

	sseDropped      uint64 // SSE subscribers dropped for not draining in time
	truncatedSweeps uint64 // sweeps completed with deadline-truncated members
}

// New builds a Service over r and starts its workers. Callers must
// Shutdown to stop them.
func New(r *runner.Runner, opts Options) *Service {
	opts = opts.withDefaults(r)
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		opts:    opts,
		run:     r,
		baseCtx: ctx,
		cancel:  cancel,
		closed:  make(chan struct{}),
		jobs:    map[string]*job{},
		byKey:   map[string]*job{},
		sweeps:  map[string]*sweep{},
		queue:   make(chan *job, opts.QueueSize),
		latency: stats.NewLatencyHistogram(),
		traces:  newTraceStore(opts.TraceDir),
	}
	if st := r.Store(); st != nil {
		s.storeSrv = runner.NewStoreServer(st)
	}
	s.unsub = r.AddListener(func(m runner.Metrics) {
		s.mu.Lock()
		s.lastRunner = m
		s.mu.Unlock()
	})
	for i := 0; i < opts.Concurrency; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			// Take one job (blocking), then greedily drain up to
			// BatchSize-1 more without waiting, and run the gulp as one
			// batch. An idle service still starts a lone job
			// immediately — batching never delays work to wait for
			// companions — and a gulp of one runs through RunJob.
			for j := range s.queue {
				batch := []*job{j}
			drain:
				for len(batch) < opts.BatchSize {
					select {
					case next, ok := <-s.queue:
						if !ok {
							break drain
						}
						batch = append(batch, next)
					default:
						break drain
					}
				}
				s.runJobs(batch)
			}
		}()
	}
	return s
}

// RetryAfter reports the configured 429 backoff hint.
func (s *Service) RetryAfter() time.Duration { return s.opts.RetryAfter }

func (s *Service) validate(cfg sim.Config) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if max := s.opts.MaxTotalInsts; max > 0 {
		total := cfg.PrewarmInsts + cfg.WarmupInsts + cfg.MeasureInsts
		if total > max {
			return fmt.Errorf("%w: %d total instructions exceeds this server's limit of %d", ErrInvalid, total, max)
		}
	}
	return nil
}

// Submit validates and enqueues one config. A config identical (after
// canonicalization) to any previously accepted job deduplicates onto
// that job — the returned bool reports it — without consuming a queue
// slot. A full queue fails with ErrQueueFull; a draining service with
// ErrDraining.
func (s *Service) Submit(cfg sim.Config) (JobView, bool, error) {
	cfg = cfg.WithDefaults()
	// Resolve before validating or keying: Validate opens the trace file
	// and Key requires the content digest, so the ref must point at this
	// node's store first.
	if err := s.resolveTrace(&cfg); err != nil {
		return JobView{}, false, err
	}
	if err := s.validate(cfg); err != nil {
		return JobView{}, false, err
	}
	key, err := runner.Key(cfg)
	if err != nil {
		return JobView{}, false, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.byKey[key]; j != nil {
		// Dedup bypasses the breaker: answering from existing work costs
		// nothing and cannot deepen an outage.
		s.deduped++
		return s.viewLocked(j), true, nil
	}
	if err := s.breakerAllowLocked(); err != nil {
		return JobView{}, false, err
	}
	wasProbe := s.breaker == breakerHalfOpen
	j, err := s.admitLocked(cfg, key)
	if err != nil {
		if wasProbe {
			// The probe slot was granted but never used; free it so the
			// next submission can probe instead of waiting on this one.
			s.probing = false
		}
		return JobView{}, false, err
	}
	return s.viewLocked(j), false, nil
}

// breakerAllowLocked gates admission of genuinely new work. Closed
// passes everything; open rejects until the cooldown has elapsed, then
// degrades to half-open; half-open admits exactly one probe at a time —
// its outcome decides whether the breaker closes or re-opens.
func (s *Service) breakerAllowLocked() error {
	if s.opts.BreakerThreshold <= 0 {
		return nil
	}
	switch s.breaker {
	case breakerOpen:
		if time.Since(s.breakerOpenedAt) < s.opts.BreakerCooldown {
			return ErrBreakerOpen
		}
		s.breaker = breakerHalfOpen
		s.probing = false
		fallthrough
	case breakerHalfOpen:
		if s.probing {
			return ErrBreakerOpen
		}
		s.probing = true
	}
	return nil
}

// breakerResultLocked folds one finished job into the breaker: any
// success closes a half-open breaker and clears the failure streak; a
// failure re-opens a half-open breaker immediately, and trips a closed
// one once the streak reaches the threshold.
func (s *Service) breakerResultLocked(failed bool) {
	if s.opts.BreakerThreshold <= 0 {
		return
	}
	if !failed {
		s.consecFails = 0
		if s.breaker == breakerHalfOpen {
			s.breaker = breakerClosed
			s.probing = false
		}
		return
	}
	s.consecFails++
	switch {
	case s.breaker == breakerHalfOpen:
		s.breaker = breakerOpen
		s.breakerOpenedAt = time.Now()
		s.breakerOpens++
		s.probing = false
	case s.breaker == breakerClosed && s.consecFails >= s.opts.BreakerThreshold:
		s.breaker = breakerOpen
		s.breakerOpenedAt = time.Now()
		s.breakerOpens++
	}
}

// admitLocked creates and enqueues a job, or reports why it cannot.
func (s *Service) admitLocked(cfg sim.Config, key string) (*job, error) {
	if s.draining {
		return nil, ErrDraining
	}
	if len(s.queue) == cap(s.queue) {
		s.rejected++
		return nil, ErrQueueFull
	}
	s.nextJob++
	j := &job{
		id:       fmt.Sprintf("job-%06d", s.nextJob),
		key:      key,
		cfg:      cfg,
		state:    StateQueued,
		watchers: map[int]chan struct{}{},
	}
	s.jobs[j.id] = j
	s.byKey[key] = j
	s.order = append(s.order, j.id)
	s.submitted++
	s.appendJobEventLocked(j, Event{Type: "state", State: StateQueued})
	s.queue <- j // cannot block: len checked under the same lock as all sends
	return j, nil
}

// SubmitSweep validates and enqueues a batch. Admission is atomic: if
// the queue cannot hold every genuinely new job, nothing is enqueued
// and the whole batch fails with ErrQueueFull. Configs that dedup onto
// existing jobs (or onto each other within the batch) share one job and
// need no queue slot.
func (s *Service) SubmitSweep(cfgs []sim.Config) (SweepView, error) {
	view, err := s.submitSweep("", cfgs)
	if err == nil && s.opts.OnSweepAdmitted != nil {
		// Outside the lock: the hook may do I/O (journal append).
		s.opts.OnSweepAdmitted(view.ID, cfgs)
	}
	return view, err
}

// RestoreSweep re-admits a journaled sweep under its original ID — the
// coordinator's crash-recovery entry point. Members whose results
// already sit in the runner's store complete without re-dispatching;
// only unfinished shards re-run. Restoring an ID that already exists is
// a no-op returning the live sweep, so replaying a journal twice is
// harmless. The ID sequence advances past restored IDs, keeping new
// sweep IDs unique.
func (s *Service) RestoreSweep(id string, cfgs []sim.Config) (SweepView, error) {
	if id == "" {
		return SweepView{}, fmt.Errorf("%w: restore needs a sweep id", ErrInvalid)
	}
	return s.submitSweep(id, cfgs)
}

// submitSweep is the shared admission path: id is empty for new sweeps,
// or a journaled ID being restored.
func (s *Service) submitSweep(id string, cfgs []sim.Config) (SweepView, error) {
	if len(cfgs) == 0 {
		return SweepView{}, fmt.Errorf("%w: sweep needs at least one config", ErrInvalid)
	}
	keys := make([]string, len(cfgs))
	for i := range cfgs {
		cfgs[i] = cfgs[i].WithDefaults()
		if err := s.resolveTrace(&cfgs[i]); err != nil {
			return SweepView{}, fmt.Errorf("config %d: %w", i, err)
		}
		if err := s.validate(cfgs[i]); err != nil {
			return SweepView{}, fmt.Errorf("config %d: %w", i, err)
		}
		k, err := runner.Key(cfgs[i])
		if err != nil {
			return SweepView{}, fmt.Errorf("config %d: %w: %v", i, ErrInvalid, err)
		}
		keys[i] = k
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if existing := s.sweeps[id]; existing != nil {
		return s.sweepViewLocked(existing), nil
	}
	if s.draining {
		return SweepView{}, ErrDraining
	}
	fresh := 0
	inBatch := map[string]bool{}
	for _, k := range keys {
		if s.byKey[k] == nil && !inBatch[k] {
			fresh++
			inBatch[k] = true
		}
	}
	if fresh > 0 {
		if err := s.breakerAllowLocked(); err != nil {
			return SweepView{}, err
		}
	}
	wasProbe := fresh > 0 && s.breaker == breakerHalfOpen
	if cap(s.queue)-len(s.queue) < fresh {
		if wasProbe {
			s.probing = false
		}
		s.rejected++
		return SweepView{}, ErrQueueFull
	}

	if id == "" {
		s.nextSweep++
		id = fmt.Sprintf("sweep-%06d", s.nextSweep)
	} else {
		// Restored ID: advance the sequence past it so the next fresh
		// sweep cannot collide.
		var n int
		if _, err := fmt.Sscanf(id, "sweep-%d", &n); err == nil && n > s.nextSweep {
			s.nextSweep = n
		}
	}
	sw := &sweep{
		id:       id,
		watchers: map[int]chan struct{}{},
	}
	members := map[string]*job{}
	for i, k := range keys {
		j := s.byKey[k]
		if j == nil {
			var err error
			j, err = s.admitLocked(cfgs[i], k)
			if err != nil {
				// Unreachable: capacity was reserved above and draining
				// is checked under the same lock.
				return SweepView{}, err
			}
		} else if members[k] == nil {
			s.deduped++
		}
		sw.jobIDs = append(sw.jobIDs, j.id)
		if members[k] == nil {
			members[k] = j
			sw.total++
			if j.state.Terminal() {
				// Already finished before this sweep existed: count it
				// now; it will never fire a completion for us.
				if j.state == StateFailed {
					sw.failed++
					if j.deadlined {
						sw.deadlined++
					}
				} else {
					sw.done++
				}
			} else {
				j.sweeps = append(j.sweeps, sw)
			}
		}
	}
	s.sweeps[sw.id] = sw
	s.sweepOrder = append(s.sweepOrder, sw.id)
	if sw.done+sw.failed > 0 {
		s.appendSweepEventLocked(sw, Event{Type: "progress", Done: sw.done, Failed: sw.failed, Total: sw.total})
	}
	if sw.done+sw.failed == sw.total && sw.deadlined > 0 {
		// Born complete from already-terminal members, some truncated.
		s.truncatedSweeps++
	}
	return s.sweepViewLocked(sw), nil
}

// Resume re-enqueues a failed, deadline- or budget-truncated job for
// another attempt. When the runner has a snapshot dir, the truncated
// attempt parked an abort checkpoint, so the new attempt continues
// where it stopped instead of restarting — each resume makes the same
// bounded forward progress until the job completes, identical to an
// untruncated run. Jobs that failed on their own terms (bad machine
// state, injected faults exhausted their retries) are not resumable
// this way: re-running a deterministic failure cannot help, so Resume
// rejects them with ErrInvalid. Sweeps that already counted the job as
// failed keep their historical counts; the job's own record updates.
func (s *Service) Resume(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobView{}, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	if j.state != StateFailed || !j.deadlined {
		return JobView{}, fmt.Errorf("%w: job %s is %s%s; only deadline- or budget-truncated jobs can resume",
			ErrInvalid, id, j.state, map[bool]string{true: "", false: " and not truncated"}[j.deadlined])
	}
	if s.draining {
		return JobView{}, ErrDraining
	}
	if len(s.queue) == cap(s.queue) {
		s.rejected++
		return JobView{}, ErrQueueFull
	}
	// The runner memoizes failures (deterministic sims fail
	// deterministically); clear the memo so the job re-executes and
	// picks up its abort snapshot.
	if err := s.run.Forget(j.cfg); err != nil {
		return JobView{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	j.state = StateQueued
	j.errMsg = ""
	j.deadlined = false
	j.res = nil
	s.resumedJobs++
	s.appendJobEventLocked(j, Event{Type: "state", State: StateQueued})
	s.queue <- j // cannot block: len checked under the same lock as all sends
	return s.viewLocked(j), nil
}

// runJob executes one queued job on a worker goroutine.
func (s *Service) runJob(j *job) {
	s.mu.Lock()
	j.state = StateRunning
	s.running++
	s.appendJobEventLocked(j, Event{Type: "state", State: StateRunning})
	s.mu.Unlock()

	ctx := s.baseCtx
	if s.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.JobTimeout)
		defer cancel()
	}
	jr := s.run.RunJob(ctx, j.cfg)
	s.settleJob(j, jr)
}

// runJobs executes a drained gulp of queued jobs as one runner batch
// call; a gulp of one goes through runJob. Each job still settles —
// state, breaker, latency, sweep progress — individually.
func (s *Service) runJobs(jobs []*job) {
	if len(jobs) == 1 {
		s.runJob(jobs[0])
		return
	}
	s.mu.Lock()
	for _, j := range jobs {
		j.state = StateRunning
		s.running++
		s.appendJobEventLocked(j, Event{Type: "state", State: StateRunning})
	}
	s.mu.Unlock()

	ctx := s.baseCtx
	if s.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.JobTimeout)
		defer cancel()
	}
	cfgs := make([]sim.Config, len(jobs))
	for i, j := range jobs {
		cfgs[i] = j.cfg
	}
	// Per-job errors live in the JobResults; the bulk error duplicates
	// what each lane already carries after cancellation.
	jrs, _ := s.run.Run(ctx, cfgs)
	for i, j := range jobs {
		s.settleJob(j, jrs[i])
	}
}

// settleJob folds one finished job's result into the service: job
// state, breaker, latency histogram, and sweep progress.
func (s *Service) settleJob(j *job, jr runner.JobResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	j.wall = jr.Wall
	j.cacheHit, j.memoHit = jr.CacheHit, jr.MemoHit
	if jr.Err != nil {
		j.state = StateFailed
		j.errMsg = jr.Err.Error()
		j.deadlined = deadlineClass(jr.Err)
		s.failedJobs++
	} else {
		j.state = StateDone
		res := jr.Result
		j.res = &res
		s.doneJobs++
	}
	s.breakerResultLocked(jr.Err != nil)
	s.latency.Observe(jr.Wall.Seconds())
	s.appendJobEventLocked(j, Event{Type: "state", State: j.state, Error: j.errMsg})

	rm := s.lastRunner
	for _, sw := range j.sweeps {
		if j.state == StateFailed {
			sw.failed++
			if j.deadlined {
				sw.deadlined++
			}
		} else {
			sw.done++
		}
		s.appendSweepEventLocked(sw, Event{
			Type: "progress", JobID: j.id,
			Done: sw.done, Failed: sw.failed, Total: sw.total,
			Runner: &rm,
		})
		if sw.done+sw.failed == sw.total && sw.deadlined > 0 {
			s.truncatedSweeps++
		}
	}
	j.sweeps = nil
}

// deadlineClass reports whether an error means "cut short by a
// deadline or budget" — the job didn't fail on its own terms, it ran
// out of allowance. Sweeps with such members report Truncated rather
// than treating the partial coverage as an outright failure.
func deadlineClass(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, sim.ErrAborted) ||
		errors.Is(err, sim.ErrBudget)
}

func (s *Service) appendJobEventLocked(j *job, ev Event) {
	ev.Seq = len(j.events) + 1
	ev.JobID = j.id
	j.events = append(j.events, ev)
	notify(j.watchers)
}

func (s *Service) appendSweepEventLocked(sw *sweep, ev Event) {
	ev.Seq = len(sw.events) + 1
	sw.events = append(sw.events, ev)
	notify(sw.watchers)
}

func notify(watchers map[int]chan struct{}) {
	for _, ch := range watchers {
		select {
		case ch <- struct{}{}:
		default: // already pending; the watcher will re-read anyway
		}
	}
}

func (s *Service) viewLocked(j *job) JobView {
	return JobView{
		ID:        j.id,
		Key:       j.key,
		State:     j.state,
		Config:    j.cfg,
		Result:    j.res,
		Error:     j.errMsg,
		CacheHit:  j.cacheHit,
		MemoHit:   j.memoHit,
		WallNs:    j.wall.Nanoseconds(),
		Truncated: j.deadlined,
	}
}

func (s *Service) sweepViewLocked(sw *sweep) SweepView {
	return SweepView{
		ID:        sw.id,
		Total:     sw.total,
		Done:      sw.done,
		Failed:    sw.failed,
		JobIDs:    append([]string(nil), sw.jobIDs...),
		Truncated: sw.deadlined > 0,
	}
}

// SweepResults returns the sweep's per-point outcomes as they stand:
// completed points carry results, failed points carry errors, and
// points still queued or running are reported as such. Callers polling
// a deadline-bound sweep get every finished point plus the Truncated
// flag instead of an all-or-nothing error.
func (s *Service) SweepResults(id string) (SweepResults, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := s.sweeps[id]
	if sw == nil {
		return SweepResults{}, fmt.Errorf("%w: sweep %q", ErrNotFound, id)
	}
	out := SweepResults{
		ID:        sw.id,
		Total:     sw.total,
		Done:      sw.done,
		Failed:    sw.failed,
		Complete:  sw.done+sw.failed == sw.total,
		Truncated: sw.deadlined > 0,
		Points:    make([]SweepPoint, 0, len(sw.jobIDs)),
	}
	for _, jid := range sw.jobIDs {
		j := s.jobs[jid]
		out.Points = append(out.Points, SweepPoint{
			JobID:  j.id,
			State:  j.state,
			Config: j.cfg,
			Result: j.res,
			Error:  j.errMsg,
		})
	}
	return out, nil
}

// Job returns the current view of a job.
func (s *Service) Job(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobView{}, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	return s.viewLocked(j), nil
}

// Jobs lists all jobs in submission order.
func (s *Service) Jobs() []JobSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobSummary, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		out = append(out, JobSummary{ID: j.id, State: j.state, Benchmark: j.cfg.Benchmark, Key: j.key})
	}
	return out
}

// Sweep returns the current view of a sweep.
func (s *Service) Sweep(id string) (SweepView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := s.sweeps[id]
	if sw == nil {
		return SweepView{}, fmt.Errorf("%w: sweep %q", ErrNotFound, id)
	}
	return s.sweepViewLocked(sw), nil
}

// Draining reports whether Shutdown has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// cursor follows one job's or sweep's event stream.
type cursor struct {
	s      *Service
	jobID  string
	sweep  string
	notify chan struct{}
	id     int
}

// watchJob subscribes to a job's events; ok is false for unknown ids.
func (s *Service) watchJob(id string) (*cursor, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, false
	}
	c := &cursor{s: s, jobID: id, notify: make(chan struct{}, 1), id: j.nextWatch}
	j.nextWatch++
	j.watchers[c.id] = c.notify
	return c, true
}

// watchSweep subscribes to a sweep's events.
func (s *Service) watchSweep(id string) (*cursor, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := s.sweeps[id]
	if sw == nil {
		return nil, false
	}
	c := &cursor{s: s, sweep: id, notify: make(chan struct{}, 1), id: sw.nextWatch}
	sw.nextWatch++
	sw.watchers[c.id] = c.notify
	return c, true
}

// eventsAfter returns events with Seq > after and whether the stream is
// complete (its subject reached a terminal state).
func (c *cursor) eventsAfter(after int) ([]Event, bool) {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	if c.jobID != "" {
		j := c.s.jobs[c.jobID]
		return tail(j.events, after), j.state.Terminal()
	}
	sw := c.s.sweeps[c.sweep]
	return tail(sw.events, after), sw.done+sw.failed == sw.total
}

func tail(events []Event, after int) []Event {
	if after >= len(events) {
		return nil
	}
	return append([]Event(nil), events[after:]...)
}

func (c *cursor) close() {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	if c.jobID != "" {
		if j := c.s.jobs[c.jobID]; j != nil {
			delete(j.watchers, c.id)
		}
		return
	}
	if sw := c.s.sweeps[c.sweep]; sw != nil {
		delete(sw.watchers, c.id)
	}
}

// Shutdown stops intake and drains: every accepted job — queued or in
// flight — runs to completion and remains fetchable, then workers exit.
// If ctx expires first, the base context is cancelled so undispatched
// jobs fail fast, and Shutdown still waits for the workers (a running
// simulation cannot be interrupted mid-flight) before returning ctx's
// error. Safe to call more than once.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	if first {
		s.draining = true
		close(s.queue) // no sends can race: all sends hold mu and check draining
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancel()
		<-done
	}
	s.closeOnce.Do(func() {
		s.unsub()
		s.cancel()
		s.traces.cleanup()
		close(s.closed)
	})
	return err
}

// Closed reports a channel that closes when Shutdown has fully drained,
// for anything (SSE streams, the binary's serve loop) that must not
// outlive the service.
func (s *Service) Closed() <-chan struct{} { return s.closed }
