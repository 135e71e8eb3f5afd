// Package runner executes simulation jobs in parallel with
// content-addressed result caching.
//
// The paper's evaluation is hundreds of independent (benchmark × size ×
// ports × hit-time × line-buffer) points; the runner treats each
// sim.Config as a schedulable, memoizable unit of work. A worker pool
// (-j workers, default runtime.NumCPU()) fans the points across
// goroutines while Run returns results in submission order, so CSV and
// table output is byte-identical at any worker count. A canonical
// encoding of the config keys both an in-memory memo — identical points
// submitted twice, even by different experiments sharing one Runner,
// simulate once — and an optional on-disk JSON store, so re-running
// figures or resuming an interrupted sweep skips already-simulated
// points. Run dispatches each call's jobs grouped by the stream they
// read, and jobs of a group of two or more share one functional
// prewarm drain through the runner's sim.PrewarmCache.
//
// Jobs are individually robust: a panicking simulation surfaces as that
// job's error rather than crashing the process, failed jobs retry a
// bounded number of times, and context cancellation drains the pool
// cleanly with completed work already checkpointed to the cache.
package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"hbcache/internal/fault"
	"hbcache/internal/sim"
)

// Options configure a Runner.
type Options struct {
	// Workers is the number of concurrent simulation goroutines.
	// Zero or negative selects runtime.NumCPU().
	Workers int
	// CacheDir, when non-empty, enables the on-disk result cache: each
	// completed simulation is stored under its content-addressed key
	// and later runs with the same config are served from disk.
	// Ignored when Store is set.
	CacheDir string
	// Store, when non-nil, is the result store backing this runner —
	// disk (Cache), in-memory (MemStore), or a coordinator's shared
	// HTTP store (RemoteStore). It takes precedence over CacheDir.
	Store Store
	// Retries is how many times a failed or panicked job re-runs before
	// its error is surfaced. Simulations are deterministic, so the
	// zero default is right unless the sim function is stubbed.
	Retries int
	// RetryBackoff is the base delay before the first retry; each
	// further retry doubles it (±50% jitter, capped at 5s), so a
	// systemic failure — disk full, runaway load — is not hammered.
	// Zero selects 100ms; negative disables backoff (tests).
	RetryBackoff time.Duration
	// SimTimeout caps each simulation attempt's wall time (sim.RunOpts
	// .Timeout). Zero means uncapped.
	SimTimeout time.Duration
	// SimMaxCycles caps each simulation attempt's simulated cycles
	// (sim.RunOpts.MaxCycles). Zero means uncapped.
	SimMaxCycles uint64
	// SimCheck runs every simulation with the cycle-level invariant
	// checker installed (sim.RunOpts.Check). Roughly an order of
	// magnitude slower; a violation fails the job with
	// sim.ErrCheckFailed, which is fatal (deterministic), not retried.
	SimCheck bool
	// BatchSize, when greater than one, makes each worker execute up to
	// BatchSize cache-missing jobs as one lockstep sim.RunBatch instead
	// of one simulation at a time, sharing stream generation and the
	// functional prewarm between compatible lanes. Results stay
	// bit-identical to the per-run path and are still content-keyed,
	// memoized, cached, and returned in submission order; a retryable
	// lane failure falls back to per-run retries. Ignored when Sim
	// replaces the simulator or SnapshotDir is set — snapshot prewarm
	// sharing and lockstep batching are mutually exclusive, and the
	// snapshot path wins so resumable sweeps keep their checkpoints.
	BatchSize int
	// SnapshotDir, when non-empty, enables checkpoint/restore for the
	// default simulator: sweep neighbors sharing a prewarm projection
	// reuse one prewarm snapshot instead of each re-warming from cold,
	// and budget-truncated jobs (SimMaxCycles/SimTimeout) park an abort
	// snapshot there so a re-submission resumes instead of restarting.
	// Ignored when Sim is set.
	SnapshotDir string
	// Faults, when non-nil, is the chaos registry threaded through the
	// simulator and the disk cache's fault sites.
	Faults *fault.Registry
	// OnProgress, when non-nil, is called with a metrics snapshot after
	// every completed job. Calls are serialized (never concurrent with
	// each other), so the callback may write to a terminal unguarded.
	OnProgress func(Metrics)
	// Sim, when non-nil, replaces the real simulator. Embedders (the
	// service's tests, benchmark harnesses) substitute instrumented or
	// stubbed functions; nil selects sim.RunContext with this Options'
	// budget and faults. The function must honor ctx: the runner relies
	// on cancellation actually stopping work.
	Sim func(ctx context.Context, cfg sim.Config) (sim.Result, error)
	// OnTerminal, when non-nil, is called once per owned job as it
	// reaches a terminal state — cache hit, simulation success, or final
	// failure — with the job's canonical key, config, and error. Memo
	// duplicates riding an owner do not re-fire it. The coordinator's
	// sweep journal hooks its result records in here.
	OnTerminal func(key string, cfg sim.Config, err error)
}

// Retryable reports whether re-running a failed job could help.
// Cancellation, simulation budgets, and invalid configs are fatal: the
// identical deterministic failure would recur (or the caller has moved
// on). Everything else — panics, injected faults, I/O errors — gets its
// bounded retries.
func Retryable(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, sim.ErrAborted),
		errors.Is(err, sim.ErrBudget),
		errors.Is(err, sim.ErrInvalidConfig),
		errors.Is(err, sim.ErrCheckFailed):
		return false
	}
	return true
}

// Metrics is a point-in-time snapshot of a Runner's counters. The JSON
// names are the stable wire format used by progress tooling and the
// service's API.
type Metrics struct {
	Submitted int           `json:"submitted"`   // jobs handed to the runner so far
	Done      int           `json:"done"`        // jobs finished, by any path below
	Simulated int           `json:"simulated"`   // jobs that actually ran the simulator
	CacheHits int           `json:"cache_hits"`  // jobs served from the on-disk cache
	MemoHits  int           `json:"memo_hits"`   // jobs deduplicated against an identical job this process
	Errors    int           `json:"errors"`      // jobs whose final attempt failed
	Retries   int           `json:"retries"`     // extra attempts consumed by failing jobs
	SimWall   time.Duration `json:"sim_wall_ns"` // cumulative wall time inside the simulator
	Elapsed   time.Duration `json:"elapsed_ns"`  // wall time since the runner was created

	// CorruptEntries is how many on-disk cache entries failed their
	// integrity check and were quarantined (renamed *.corrupt).
	CorruptEntries int `json:"corrupt_entries"`

	// PrewarmHits and PrewarmMisses count simulations that replayed a
	// shared prewarm prefix and that drained one from the generator
	// (sim.PrewarmCache); jobs outside a multi-job stream group touch
	// neither.
	PrewarmHits   int `json:"prewarm_hits"`
	PrewarmMisses int `json:"prewarm_misses"`
}

// Rate is completed jobs per second of runner lifetime (cache and memo
// hits included — it measures sweep throughput, not simulator speed).
func (m Metrics) Rate() float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return float64(m.Done) / m.Elapsed.Seconds()
}

// JobResult is the outcome of one submitted job.
type JobResult struct {
	Config   sim.Config
	Result   sim.Result
	Err      error
	CacheHit bool          // served from the on-disk cache
	MemoHit  bool          // deduplicated against an identical job
	Wall     time.Duration // time spent producing the result
	Attempts int           // simulation attempts (0 for memo hits and skips)
}

// Runner schedules simulation jobs onto a worker pool.
type Runner struct {
	workers    int
	retries    int
	backoff    time.Duration
	onProgress func(Metrics)
	onTerminal func(key string, cfg sim.Config, err error)
	store      Store

	// batch is the lockstep lanes per worker (1 = per-run path) and
	// runOpts the options handed to sim.RunBatch on the batched path.
	batch   int
	runOpts sim.RunOpts
	// prewarm is shared by Run's jobs whose stream group has two or
	// more members; nil when Sim or SnapshotDir replaces the default
	// simulator.
	prewarm *sim.PrewarmCache

	// sim runs one simulation; tests substitute instrumented stubs.
	sim func(ctx context.Context, cfg sim.Config) (sim.Result, error)

	start time.Time

	// cbMu serializes progress delivery: it is taken before the metrics
	// snapshot and held through the callbacks, so every subscriber sees
	// snapshots in non-decreasing Done order, never concurrently. Lock
	// order is cbMu before mu; nothing takes them in reverse.
	cbMu      sync.Mutex
	listeners map[int]func(Metrics)
	nextLsn   int

	mu      sync.Mutex
	memo    map[string]*memoEntry
	metrics Metrics
}

// memoEntry is the single in-flight-or-finished execution of one
// canonical config; duplicates wait on done instead of re-simulating.
type memoEntry struct {
	done chan struct{}
	res  sim.Result
	err  error
}

// New builds a Runner. The only error source is creating CacheDir.
func New(opts Options) (*Runner, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	runOpts := sim.RunOpts{
		MaxCycles: opts.SimMaxCycles,
		Timeout:   opts.SimTimeout,
		Faults:    opts.Faults,
		Check:     opts.SimCheck,
	}
	simFn := opts.Sim
	if simFn == nil {
		if opts.SnapshotDir != "" {
			simFn = snapshotSim(opts.SnapshotDir, runOpts)
		} else {
			simFn = func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
				return sim.RunContext(ctx, cfg, runOpts)
			}
		}
	}
	batch := opts.BatchSize
	if batch < 1 || opts.Sim != nil || opts.SnapshotDir != "" {
		batch = 1
	}
	backoff := opts.RetryBackoff
	switch {
	case backoff == 0:
		backoff = 100 * time.Millisecond
	case backoff < 0:
		backoff = 0
	}
	var prewarm *sim.PrewarmCache
	if opts.Sim == nil && opts.SnapshotDir == "" {
		prewarm = sim.NewPrewarmCache()
	}
	r := &Runner{
		prewarm:    prewarm,
		workers:    workers,
		retries:    opts.Retries,
		backoff:    backoff,
		onProgress: opts.OnProgress,
		onTerminal: opts.OnTerminal,
		batch:      batch,
		runOpts:    runOpts,
		sim:        simFn,
		start:      time.Now(),
		memo:       map[string]*memoEntry{},
		listeners:  map[int]func(Metrics){},
	}
	switch {
	case opts.Store != nil:
		r.store = opts.Store
	case opts.CacheDir != "":
		c, err := NewCache(opts.CacheDir)
		if err != nil {
			return nil, err
		}
		c.faults = opts.Faults
		r.store = c
	}
	return r, nil
}

// Store reports the result store backing this runner, nil when results
// are not persisted. The service mounts it over HTTP in coordinator
// role so a worker fleet can share it.
func (r *Runner) Store() Store { return r.store }

// Workers reports the configured pool width.
func (r *Runner) Workers() int { return r.workers }

// BatchSize reports the effective lockstep lanes per worker (1 when
// batching is off or unavailable for this runner's configuration).
func (r *Runner) BatchSize() int { return r.batch }

// AddListener subscribes fn to the same per-completion metrics
// snapshots as Options.OnProgress and returns a function that removes
// the subscription. Deliveries are serialized with each other and with
// OnProgress, and snapshots arrive in non-decreasing Done order, so a
// subscriber may publish them (e.g. over SSE) without reordering. The
// callback must not call back into the Runner's blocking methods.
func (r *Runner) AddListener(fn func(Metrics)) (remove func()) {
	r.cbMu.Lock()
	id := r.nextLsn
	r.nextLsn++
	r.listeners[id] = fn
	r.cbMu.Unlock()
	return func() {
		r.cbMu.Lock()
		delete(r.listeners, id)
		r.cbMu.Unlock()
	}
}

// Metrics returns a snapshot of the runner's counters.
func (r *Runner) Metrics() Metrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked()
}

func (r *Runner) snapshotLocked() Metrics {
	m := r.metrics
	m.Elapsed = time.Since(r.start)
	if r.store != nil {
		m.CorruptEntries = int(r.store.CorruptEntries())
	}
	hits, misses := r.prewarm.Stats()
	m.PrewarmHits, m.PrewarmMisses = int(hits), int(misses)
	return m
}

// Run executes the configs across the worker pool and returns one
// JobResult per config, in submission order regardless of completion
// order. Per-job failures are reported in the corresponding
// JobResult.Err; the returned error is non-nil only when ctx was
// cancelled, in which case undispatched jobs carry ctx's error.
//
// Jobs are dispatched grouped by stream (sim.StreamGroups), groups in
// order of first appearance, so the members of a group run back to
// back and share their prewarm prefix.
func (r *Runner) Run(ctx context.Context, cfgs []sim.Config) ([]JobResult, error) {
	if r.batch > 1 {
		return r.runBatched(ctx, cfgs)
	}
	results := make([]JobResult, len(cfgs))
	r.mu.Lock()
	r.metrics.Submitted += len(cfgs)
	r.mu.Unlock()

	order := make([]int, 0, len(cfgs))
	shared := make([]bool, len(cfgs))
	for _, g := range sim.StreamGroups(cfgs) {
		order = append(order, g...)
		for _, i := range g {
			shared[i] = len(g) > 1
		}
	}

	workers := r.workers
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = r.do(ctx, cfgs[i], shared[i])
			}
		}()
	}
dispatch:
	for _, i := range order {
		select {
		case idx <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		// Jobs the dispatcher never handed out are still zero values;
		// mark them cancelled so callers see every slot accounted for.
		for i := range results {
			if results[i].Err == nil && results[i].Attempts == 0 && !results[i].MemoHit && !results[i].CacheHit {
				results[i].Config = cfgs[i]
				results[i].Err = err
				r.finish(&results[i])
			}
		}
		return results, err
	}
	return results, nil
}

// RunOne executes a single config synchronously on the calling
// goroutine, still going through the memo and cache.
func (r *Runner) RunOne(ctx context.Context, cfg sim.Config) (sim.Result, error) {
	jr := r.RunJob(ctx, cfg)
	return jr.Result, jr.Err
}

// RunJob is RunOne returning the full JobResult, so embedders like the
// HTTP service can report cache/memo provenance and wall time per job.
func (r *Runner) RunJob(ctx context.Context, cfg sim.Config) JobResult {
	r.mu.Lock()
	r.metrics.Submitted++
	r.mu.Unlock()
	return r.do(ctx, cfg, false)
}

// do produces the result for one job: memo, then disk cache, then a
// simulation with panic recovery and bounded retry. It records metrics
// and fires the progress callback exactly once per job. shared routes
// the simulation through the runner's prewarm cache.
func (r *Runner) do(ctx context.Context, cfg sim.Config, shared bool) JobResult {
	jr := JobResult{Config: cfg}
	started := time.Now()
	var (
		key   string
		owner bool
	)
	settle := func() JobResult {
		jr.Wall = time.Since(started)
		if owner && r.onTerminal != nil {
			// Owned jobs only: duplicates riding the memo would journal
			// the same key again with no new information.
			r.onTerminal(key, cfg, jr.Err)
		}
		r.finish(&jr)
		return jr
	}

	if err := ctx.Err(); err != nil {
		jr.Err = err
		return settle()
	}

	k, err := Key(cfg)
	if err != nil {
		jr.Err = fmt.Errorf("runner: keying %s config: %w", cfg.Benchmark, err)
		return settle()
	}
	key = k

	r.mu.Lock()
	entry, inFlight := r.memo[key]
	if !inFlight {
		entry = &memoEntry{done: make(chan struct{})}
		r.memo[key] = entry
	}
	r.mu.Unlock()

	if inFlight {
		select {
		case <-entry.done:
			jr.Result, jr.Err = entry.res, entry.err
			jr.MemoHit = true
		case <-ctx.Done():
			jr.Err = ctx.Err()
		}
		return settle()
	}

	// This goroutine owns the entry: fill it from disk or by simulating,
	// then publish for any duplicates waiting above.
	owner = true
	defer close(entry.done)

	if r.store != nil {
		if res, ok := r.store.Get(key); ok {
			entry.res = res
			jr.Result, jr.CacheHit = res, true
			return settle()
		}
	}

	var res sim.Result
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			entry.err = err
			jr.Err = err
			return settle()
		}
		jr.Attempts = attempt + 1
		res, err = r.simulate(ctx, cfg, shared)
		if err == nil || attempt >= r.retries || !Retryable(err) {
			break
		}
		r.mu.Lock()
		r.metrics.Retries++
		r.mu.Unlock()
		if !r.sleepBackoff(ctx, attempt) {
			entry.err = ctx.Err()
			jr.Err = entry.err
			return settle()
		}
	}
	if err != nil {
		entry.err = fmt.Errorf("runner: %s: %w", cfg.Benchmark, err)
		jr.Err = entry.err
		return settle()
	}
	entry.res = res
	jr.Result = res
	if r.store != nil {
		// Checkpoint before reporting done so a cancellation right after
		// this job still finds the result in the store next run. A store
		// write failure is not a job failure — the result itself is
		// good — so it is deliberately dropped.
		_ = r.store.Put(key, cfg, res)
	}
	return settle()
}

// sleepBackoff waits out the exponential-backoff delay before retry
// attempt+1: base<<attempt with ±50% jitter, capped at 5s. It reports
// false if ctx was cancelled while waiting.
func (r *Runner) sleepBackoff(ctx context.Context, attempt int) bool {
	if r.backoff <= 0 {
		return true
	}
	d := r.backoff << attempt
	if d <= 0 || d > 5*time.Second {
		d = 5 * time.Second
	}
	d = d/2 + rand.N(d) // uniform in [d/2, 3d/2)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// simulate runs one simulation, converting a panic into an error so a
// bad design point cannot take down a thousand-point sweep. shared
// runs it with the runner's prewarm cache, when there is one.
func (r *Runner) simulate(ctx context.Context, cfg sim.Config, shared bool) (res sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("simulation panicked: %v\n%s", p, debug.Stack())
		}
	}()
	if shared && r.prewarm != nil {
		opts := r.runOpts
		opts.Prewarm = r.prewarm
		return sim.RunContext(ctx, cfg, opts)
	}
	return r.sim(ctx, cfg)
}

// finish folds one completed job into the metrics and fires the
// progress callback and listeners with a consistent snapshot. cbMu is
// taken before the counters are updated so concurrent finishes deliver
// their snapshots in the order the counters advanced.
func (r *Runner) finish(jr *JobResult) {
	r.cbMu.Lock()
	defer r.cbMu.Unlock()
	r.mu.Lock()
	r.metrics.Done++
	switch {
	case jr.CacheHit:
		r.metrics.CacheHits++
	case jr.MemoHit:
		r.metrics.MemoHits++
	case jr.Attempts > 0:
		r.metrics.Simulated++
		r.metrics.SimWall += jr.Wall
	}
	if jr.Err != nil {
		r.metrics.Errors++
	}
	snap := r.snapshotLocked()
	r.mu.Unlock()
	if r.onProgress != nil {
		r.onProgress(snap)
	}
	for _, fn := range r.listeners {
		fn(snap)
	}
}

// Results unwraps a batch into bare sim.Results, returning the first
// per-job error encountered.
func Results(jrs []JobResult) ([]sim.Result, error) {
	out := make([]sim.Result, len(jrs))
	for i, jr := range jrs {
		if jr.Err != nil {
			return nil, jr.Err
		}
		out[i] = jr.Result
	}
	return out, nil
}

// Parallel runs fn(i) for each i in [0, n) across at most workers
// goroutines. It is the runner's pool discipline for work that is not a
// sim.Config job (and so cannot be cached), like the raw miss-rate
// points of Figure 3. The first error stops dispatch and is returned;
// ctx cancellation likewise.
func Parallel(ctx context.Context, workers, n int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		once  sync.Once
		first error
	)
	fail := func(err error) {
		once.Do(func() {
			first = err
			cancel()
		})
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if cctx.Err() != nil {
					continue
				}
				if err := fn(i); err != nil {
					fail(err)
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-cctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	if first != nil {
		return first
	}
	return ctx.Err()
}
