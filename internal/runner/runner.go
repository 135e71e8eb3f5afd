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
// points.
//
// Run is the one scheduler: single jobs (RunOne, the service's gulps),
// figure passes and lockstep sweeps all run through it as batches of
// Options.BatchSize jobs (one when batching is off). A batch of two or
// more steps in lockstep through sim.RunBatch, its lanes of one stream
// reading one shared instruction ring. A batch, of any size, with a
// job whose stream group has two or more members shares its streams'
// functional prewarm drains, and each cache geometry's finished
// prewarm, through the runner's one sim.PrewarmCache.
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
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"hbcache/internal/fault"
	"hbcache/internal/retry"
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
	// of one simulation at a time, sharing stream generation between
	// lanes of one stream; the functional prewarm is shared through
	// the runner's prewarm cache at every batch size. Results stay
	// bit-identical to batches of one and are still content-keyed,
	// memoized, cached, and returned in submission order; a retryable
	// lane failure is retried as a batch of one. Ignored when Sim
	// replaces the simulator or SnapshotDir is set: an abort snapshot
	// is one run's state, which a lockstep batch cannot park or resume.
	BatchSize int
	// SnapshotDir, when non-empty, makes the default simulator's
	// budget-truncated jobs (SimMaxCycles/SimTimeout) park an abort
	// snapshot there, so a re-submission resumes instead of restarting;
	// the snapshot is removed once the job completes. Sampled jobs park
	// nothing. Prewarm sharing through the runner's prewarm cache is
	// unaffected. Ignored when Sim is set.
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
	SimWall   time.Duration `json:"sim_wall_ns"` // cumulative wall time inside the simulator, each batch counted once
	Elapsed   time.Duration `json:"elapsed_ns"`  // wall time since the runner was created

	// CorruptEntries is how many on-disk cache entries failed their
	// integrity check and were quarantined (renamed *.corrupt).
	CorruptEntries int `json:"corrupt_entries"`

	// StoreWriteErrors counts finished results the store refused (a full
	// disk, an unreachable coordinator). The job still succeeds; the
	// result is re-simulated the next time it is asked for.
	StoreWriteErrors int `json:"store_write_errors"`

	// PrewarmHits and PrewarmMisses count simulations that used a
	// shared prewarm prefix and that drained one from the generator;
	// PrewarmWarmFills counts finished prewarms captured for sharing
	// and PrewarmWarmApplies the simulations that applied one instead
	// of sweeping and replaying; PrewarmTapeFills counts recorded
	// stream tapes and PrewarmTapeReads the simulations whose timed
	// window was fed from one (sim.PrewarmStats). Every simulated job
	// of a multi-job stream group counts once in PrewarmHits or
	// PrewarmMisses, at any BatchSize; jobs outside one touch none of
	// them. Only a batch's lone lanes read tapes.
	PrewarmHits        int `json:"prewarm_hits"`
	PrewarmMisses      int `json:"prewarm_misses"`
	PrewarmWarmFills   int `json:"prewarm_warm_fills"`
	PrewarmWarmApplies int `json:"prewarm_warm_applies"`
	PrewarmTapeFills   int `json:"prewarm_tape_fills"`
	PrewarmTapeReads   int `json:"prewarm_tape_reads"`
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
	CacheHit bool // served from the on-disk cache
	MemoHit  bool // deduplicated against an identical job
	Attempts int  // simulation attempts (0 for memo hits and skips)
	// Wall runs from when a pool worker takes the job's batch to when
	// the job settles; a job no worker took — a memo join, or one
	// cancelled before dispatch — is timed from Run entry. A lockstep
	// lane's Wall spans its batch's run, not the time the batch queued.
	Wall time.Duration
}

// Runner schedules simulation jobs onto a worker pool.
type Runner struct {
	workers    int
	retries    int
	backoff    time.Duration
	onProgress func(Metrics)
	onTerminal func(key string, cfg sim.Config, err error)
	store      Store

	// batch is the lockstep lanes per batch (1 = every job alone) and
	// runOpts the options of the default simulator.
	batch   int
	runOpts sim.RunOpts
	// prewarm is shared by Run's batches that hold a job whose stream
	// group has two or more members; nil when Sim replaces the default
	// simulator.
	prewarm *sim.PrewarmCache
	// snapshotDir parks the default simulator's abort snapshots; empty
	// when off.
	snapshotDir string

	// sim, when non-nil, replaces the default simulator (Options.Sim);
	// tests substitute instrumented stubs.
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
	if opts.Sim == nil {
		prewarm = sim.NewPrewarmCache()
	}
	r := &Runner{
		prewarm:     prewarm,
		snapshotDir: opts.SnapshotDir,
		workers:     workers,
		retries:     opts.Retries,
		backoff:     backoff,
		onProgress:  opts.OnProgress,
		onTerminal:  opts.OnTerminal,
		batch:       batch,
		runOpts:     runOpts,
		sim:         opts.Sim,
		start:       time.Now(),
		memo:        map[string]*memoEntry{},
		listeners:   map[int]func(Metrics){},
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
	pw := r.prewarm.Stats()
	m.PrewarmHits, m.PrewarmMisses = int(pw.Hits), int(pw.Misses)
	m.PrewarmWarmFills, m.PrewarmWarmApplies = int(pw.WarmFills), int(pw.WarmApplies)
	m.PrewarmTapeFills, m.PrewarmTapeReads = int(pw.TapeFills), int(pw.TapeReads)
	return m
}

// Run executes the configs across the worker pool and returns one
// JobResult per config, in submission order regardless of completion
// order. Per-job failures are reported in the corresponding
// JobResult.Err; the returned error is non-nil only when ctx was
// cancelled, in which case undispatched jobs carry ctx's error.
//
// Run is the runner's only scheduler. It claims or joins a memo entry
// per job in submission order, groups the owned jobs by stream
// (sim.StreamGroups, groups in order of first appearance), cuts them
// into batches of BatchSize jobs, and fans the batches across the pool
// with Parallel; doBatch settles each one.
func (r *Runner) Run(ctx context.Context, cfgs []sim.Config) ([]JobResult, error) {
	start := time.Now()
	results := make([]JobResult, len(cfgs))
	r.mu.Lock()
	r.metrics.Submitted += len(cfgs)
	r.mu.Unlock()
	// settle finishes a job no pool worker took, timed from Run entry.
	settle := func(jr *JobResult) {
		jr.Wall = time.Since(start)
		r.finish(jr, 0)
	}

	// Claim or join a memo entry per job, in submission order, so a
	// duplicate rides the first occurrence of its config.
	var owned, joined []*job
	for i, cfg := range cfgs {
		jr := &results[i]
		jr.Config = cfg
		if err := ctx.Err(); err != nil {
			jr.Err = err
			settle(jr)
			continue
		}
		key, err := Key(cfg)
		if err != nil {
			jr.Err = fmt.Errorf("runner: keying %s config: %w", cfg.Benchmark, err)
			settle(jr)
			continue
		}
		r.mu.Lock()
		entry, inFlight := r.memo[key]
		if !inFlight {
			entry = &memoEntry{done: make(chan struct{})}
			r.memo[key] = entry
		}
		r.mu.Unlock()
		j := &job{jr: jr, key: key, entry: entry}
		if inFlight {
			joined = append(joined, j)
		} else {
			owned = append(owned, j)
		}
	}

	batches := r.batches(owned)
	// doBatch settles its jobs itself; Parallel's only error is ctx's.
	_ = Parallel(ctx, r.workers, len(batches), func(i int) error {
		r.doBatch(ctx, batches[i])
		return nil
	})

	// Batches no worker took: settle their jobs as cancelled and
	// publish their memo entries, so no duplicate waits forever on an
	// execution that will not happen.
	for _, j := range owned {
		select {
		case <-j.entry.done:
		default:
			j.entry.err = ctx.Err()
			close(j.entry.done)
			j.jr.Err = j.entry.err
			settle(j.jr)
		}
	}
	// Duplicates: their execution is finished (above or in another
	// concurrent Run), or ctx is gone.
	for _, j := range joined {
		select {
		case <-j.entry.done:
			j.jr.Result, j.jr.Err = j.entry.res, j.entry.err
			j.jr.MemoHit = true
		case <-ctx.Done():
			j.jr.Err = ctx.Err()
		}
		settle(j.jr)
	}
	return results, ctx.Err()
}

// RunOne runs a single config as a Run of one, still going through the
// memo and cache.
func (r *Runner) RunOne(ctx context.Context, cfg sim.Config) (sim.Result, error) {
	jrs, _ := r.Run(ctx, []sim.Config{cfg})
	return jrs[0].Result, jrs[0].Err
}

// Forget drops the memoized outcome for cfg, so the next submission of
// the same canonical config re-executes instead of replaying the memo.
// The service's job-resume path needs this: the runner memoizes
// failures (deterministic sims fail deterministically), but a
// budget-truncated job that parked an abort snapshot will make fresh
// progress on re-execution. Callers must not Forget a config while a
// job for it is still in flight.
func (r *Runner) Forget(cfg sim.Config) error {
	key, err := Key(cfg)
	if err != nil {
		return err
	}
	r.mu.Lock()
	delete(r.memo, key)
	r.mu.Unlock()
	return nil
}

// job is one submitted config's scheduling state inside Run: its
// result slot, content key, the memo entry it owns or joined, and
// whether its stream group has two or more members.
type job struct {
	jr     *JobResult
	key    string
	entry  *memoEntry
	shared bool
}

// batches groups owned jobs by stream and cuts them into batches of
// r.batch jobs, so lanes that can share one stream land in one batch.
// Submission order is kept within a group and groups keep their order
// of first appearance, so a sweep that is already grouped
// (benchmark-major) batches exactly as submitted.
func (r *Runner) batches(jobs []*job) [][]*job {
	cfgs := make([]sim.Config, len(jobs))
	for i, j := range jobs {
		cfgs[i] = j.jr.Config
	}
	grouped := make([]*job, 0, len(jobs))
	for _, g := range sim.StreamGroups(cfgs) {
		for _, i := range g {
			jobs[i].shared = len(g) > 1
			grouped = append(grouped, jobs[i])
		}
	}
	var out [][]*job
	for len(grouped) > 0 {
		n := min(r.batch, len(grouped))
		out = append(out, grouped[:n])
		grouped = grouped[n:]
	}
	return out
}

// doBatch settles one batch on the pool worker that took it: store
// lookups first, then one simulate call over the misses, retries for
// each retryable lane failure, and a store checkpoint per success.
// Every job's memo entry is published exactly once, and every job's
// Wall is timed from when the worker took the batch. The n lanes of
// one simulate call share its wall, so each charges Wall/n to SimWall.
func (r *Runner) doBatch(ctx context.Context, jobs []*job) {
	taken := time.Now()
	settle := func(j *job, lanes int) {
		close(j.entry.done)
		j.jr.Wall = time.Since(taken)
		if r.onTerminal != nil {
			r.onTerminal(j.key, j.jr.Config, j.jr.Err)
		}
		r.finish(j.jr, j.jr.Wall/time.Duration(lanes))
	}
	var run []*job
	for _, j := range jobs {
		if r.store != nil {
			if res, ok := r.store.Get(j.key); ok {
				j.entry.res = res
				j.jr.Result, j.jr.CacheHit = res, true
				settle(j, 1)
				continue
			}
		}
		run = append(run, j)
	}
	if len(run) == 0 {
		return
	}
	if err := ctx.Err(); err != nil {
		for _, j := range run {
			j.entry.err, j.jr.Err = err, err
			settle(j, 1)
		}
		return
	}

	res, errs := r.simulate(ctx, run)
	for i, j := range run {
		j.jr.Attempts = 1
		laneRes, err := r.retryFailed(ctx, j, res[i], errs[i])
		if err != nil {
			j.entry.err = fmt.Errorf("runner: %s: %w", j.jr.Config.Benchmark, err)
			j.jr.Err = j.entry.err
		} else {
			j.entry.res, j.jr.Result = laneRes, laneRes
			if r.store != nil {
				// Checkpoint before reporting done so a cancellation
				// right after this job still finds the result in the
				// store next run. A store write failure is not a job
				// failure — the result itself is good — so it is only
				// counted.
				if err := r.store.Put(j.key, j.jr.Config, laneRes); err != nil {
					r.mu.Lock()
					r.metrics.StoreWriteErrors++
					r.mu.Unlock()
				}
			}
		}
		settle(j, len(run))
	}
}

// retryFailed re-runs a retryable failure as a batch of one, up to the
// runner's retry budget, waiting retry.Backoff between attempts. res
// and err are the outcome of the job's first attempt, which
// j.jr.Attempts already counts. It returns the first success or the
// last error; a cancellation while waiting returns ctx's error.
func (r *Runner) retryFailed(ctx context.Context, j *job, res sim.Result, err error) (sim.Result, error) {
	for attempt := 0; err != nil && attempt < r.retries && Retryable(err); attempt++ {
		r.mu.Lock()
		r.metrics.Retries++
		r.mu.Unlock()
		if !retry.Backoff(ctx, r.backoff, attempt) {
			return sim.Result{}, ctx.Err()
		}
		j.jr.Attempts++
		rs, errs := r.simulate(ctx, []*job{j})
		res, err = rs[0], errs[0]
	}
	return res, err
}

// simulate runs one attempt of a batch, converting a panic into one
// error per lane so a bad design point cannot take down a
// thousand-point sweep; retries isolate a genuinely poisonous config
// to its own job. The default simulator shares a batch's prewarm
// through the runner's prewarm cache when one of its jobs' stream
// group has two or more members. Two or more jobs step in lockstep
// through sim.RunBatch. A batch of one runs r.sim when set; otherwise
// it runs the default simulator, under a snapshot directory resuming
// the job's parked abort snapshot and parking a new one if the budget
// stops it again. An unusable snapshot (sim.ErrSnapshot: it was
// quarantined to *.corrupt) costs one cold attempt, never the job; the
// snapshot is removed once the job completes.
func (r *Runner) simulate(ctx context.Context, jobs []*job) (res []sim.Result, errs []error) {
	defer func() {
		if p := recover(); p != nil {
			err := fmt.Errorf("simulation panicked: %v\n%s", p, debug.Stack())
			res = make([]sim.Result, len(jobs))
			errs = make([]error, len(jobs))
			for i := range errs {
				errs[i] = err
			}
		}
	}()
	opts := r.runOpts
	for _, j := range jobs {
		if j.shared {
			opts.Prewarm = r.prewarm
		}
	}
	if len(jobs) > 1 {
		cfgs := make([]sim.Config, len(jobs))
		for i, j := range jobs {
			cfgs[i] = j.jr.Config
		}
		return sim.RunBatch(ctx, cfgs, opts)
	}
	j := jobs[0]
	if r.sim != nil {
		one, err := r.sim(ctx, j.jr.Config)
		return []sim.Result{one}, []error{err}
	}
	// Sampled runs neither resume nor park: their retired stream is
	// discontinuous, so exact resume does not exist for them.
	if r.snapshotDir != "" && j.jr.Config.Sample == nil {
		opts.SnapshotOnAbort = filepath.Join(r.snapshotDir, "abort-"+j.key+".json")
		if _, err := os.Stat(opts.SnapshotOnAbort); err == nil {
			opts.Resume = opts.SnapshotOnAbort
		}
	}
	one, err := sim.RunContext(ctx, j.jr.Config, opts)
	if opts.Resume != "" && errors.Is(err, sim.ErrSnapshot) {
		opts.Resume = ""
		one, err = sim.RunContext(ctx, j.jr.Config, opts)
	}
	if opts.SnapshotOnAbort != "" && err == nil {
		os.Remove(opts.SnapshotOnAbort)
	}
	return []sim.Result{one}, []error{err}
}

// finish folds one completed job into the metrics, charging simWall to
// SimWall when the job ran the simulator, and fires the progress
// callback and listeners with a consistent snapshot. cbMu is
// taken before the counters are updated so concurrent finishes deliver
// their snapshots in the order the counters advanced.
func (r *Runner) finish(jr *JobResult, simWall time.Duration) {
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
		r.metrics.SimWall += simWall
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
