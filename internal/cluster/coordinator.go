// Package cluster is the distributed sweep fabric: a coordinator that
// spreads design-space points across a fleet of worker processes over
// HTTP. Workers are plain hbserved instances — the existing job/queue/
// SSE protocol is the worker API — so the fleet is just N copies of the
// same binary pointed at a shared result store.
//
// The paper's evaluation (and everything the ROADMAP grows it into) is
// embarrassingly parallel: hundreds of independent (benchmark × cache
// organization) points. The coordinator exploits that three ways:
//
//   - Dispatch: each point goes to the least-loaded admissible worker
//     at the moment it is dispatched, so a worker that drains its points
//     takes the next ones and one slow box never gates the sweep. Run
//     has the signature of runner.Options.Sim: the caller's runner picks
//     the order and concurrency, the coordinator only the worker.
//   - Hedging: a point that outlives Options.HedgeAfter is duplicated
//     on a different worker than the one holding it; the first terminal
//     result wins. Stragglers cost one duplicate simulation instead of
//     the sweep's tail latency.
//   - Fault routing: every dispatch goes through a per-worker circuit
//     breaker and exponential backoff (internal/retry, the primitives
//     the service and runner use too). A dead worker's points reassign
//     to its peers; the worker rejoins via a half-open probe when it
//     recovers.
//
// The fleet itself is dynamic: Options.Workers seeds it, but workers
// also self-register over HTTP and keep their membership alive with
// heartbeat leases (Register/Heartbeat/Deregister). A lease that goes
// stale marks the worker expired and cancels its in-flight dispatches,
// so its shards reassign to live peers within one reaper tick; a
// SIGTERMed worker deregisters first, so the coordinator stops
// dispatching to it while it drains. Sweep state survives the
// coordinator itself dying via the write-ahead journal (see journal.go).
//
// Dedup is not the coordinator's job: the runner's content-addressed
// keys are location-independent, so pointing every worker's runner.Store
// at the coordinator's shared HTTP store makes each unique config
// simulate exactly once, cluster-wide, with no coordination protocol
// beyond GET/PUT.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hbcache/internal/fault"
	"hbcache/internal/retry"
	"hbcache/internal/runner"
	"hbcache/internal/service"
	"hbcache/internal/sim"
)

// Options configure a Coordinator.
type Options struct {
	// Workers seeds the fleet: base URLs of hbserved worker instances.
	// Seed workers are permanent — they never lease-expire — but the
	// list may be empty when workers self-register instead.
	Workers []string
	// HTTP, when non-nil, is the client used for all worker traffic.
	HTTP *http.Client
	// HedgeAfter is how long a dispatched point may run before a
	// duplicate is hedged onto another worker (first result wins).
	// Zero selects 30s; negative disables hedging.
	HedgeAfter time.Duration
	// DispatchRetries bounds how many workers one point will try before
	// its error is surfaced. Zero tracks the live fleet: 2× its size,
	// floor 4 (the fleet can grow mid-sweep).
	DispatchRetries int
	// RetryBackoff is the base delay between dispatch attempts,
	// doubling with ±50% jitter like the runner's retry backoff. Zero
	// selects 100ms; negative disables (tests).
	RetryBackoff time.Duration
	// BreakerThreshold is how many consecutive dispatch failures open a
	// worker's circuit breaker. Zero selects 3; negative disables.
	BreakerThreshold int
	// BreakerCooldown is how long an open worker breaker waits before
	// admitting a half-open probe. Zero selects 10s.
	BreakerCooldown time.Duration
	// LeaseTTL is how long a registered worker's lease lives without a
	// heartbeat before the reaper expires it and reassigns its points.
	// Zero selects 15s.
	LeaseTTL time.Duration
	// JoinGrace is how long a dispatch will wait on an empty fleet for
	// the first worker to register before failing with ErrNoWorkers.
	// Zero selects 60s; negative disables the wait.
	JoinGrace time.Duration
	// Journal, when non-nil, receives a dispatch record per point handed
	// to a worker (sweep and result records are written by the service
	// and runner hooks; see cmd/hbserved).
	Journal *Journal
	// Faults, when non-nil, arms the cluster.dispatch and
	// cluster.heartbeat chaos sites.
	Faults *fault.Registry
}

func (o Options) withDefaults() Options {
	switch {
	case o.HedgeAfter == 0:
		o.HedgeAfter = 30 * time.Second
	case o.HedgeAfter < 0:
		o.HedgeAfter = 0 // disabled
	}
	if o.DispatchRetries < 0 {
		o.DispatchRetries = 0 // 0 = track fleet size at dispatch time
	}
	switch {
	case o.RetryBackoff == 0:
		o.RetryBackoff = 100 * time.Millisecond
	case o.RetryBackoff < 0:
		o.RetryBackoff = 0
	}
	switch {
	case o.BreakerThreshold == 0:
		o.BreakerThreshold = 3
	case o.BreakerThreshold < 0:
		o.BreakerThreshold = 0
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 10 * time.Second
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 15 * time.Second
	}
	switch {
	case o.JoinGrace == 0:
		o.JoinGrace = 60 * time.Second
	case o.JoinGrace < 0:
		o.JoinGrace = 0 // disabled
	}
	return o
}

// ErrNoWorkers means dispatch cannot proceed right now: the fleet is
// empty (no seeds, nobody registered) or every member's breaker is
// open.
var ErrNoWorkers = errors.New("cluster: no dispatchable workers (fleet empty or all breakers open)")

// worker is the coordinator's record of one fleet member. Lifecycle
// fields (lease, draining, expired) are guarded by the coordinator's
// fleet lock; the worker's own mu guards only the dispatch counters, so
// hot-path accounting never contends with membership changes.
type worker struct {
	client *Client
	br     *retry.Breaker

	// permanent marks a seed worker from Options.Workers: it never
	// lease-expires, though it may still register and heartbeat.
	permanent bool
	// registered is set once the worker self-registers; lease is its
	// last heartbeat. draining marks a deregistered worker finishing
	// in-flight jobs; expired marks a reaped lease. Guarded by fleetMu.
	registered bool
	lease      time.Time
	draining   bool
	expired    bool
	// ctx is cancelled when the worker's lease expires, failing its
	// in-flight dispatches immediately so their points reassign.
	ctx    context.Context
	cancel context.CancelFunc

	mu         sync.Mutex
	inflight   int
	dispatched int64
	completed  int64
	failed     int64
}

func (w *worker) load() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.inflight
}

// Coordinator dispatches simulation points to a worker fleet.
type Coordinator struct {
	opts   Options
	faults *fault.Registry

	// fleetMu guards workers, byURL, and every worker's lifecycle
	// fields.
	fleetMu sync.RWMutex
	workers []*worker
	byURL   map[string]*worker

	leaseExpiries atomic.Int64
	reaperOnce    sync.Once
	closeOnce     sync.Once
	reaperStop    chan struct{}
}

// New builds a Coordinator. The seed fleet may be empty: workers can
// join later via Register, and dispatches wait out Options.JoinGrace
// for the first one.
func New(opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	c := &Coordinator{
		opts:       opts,
		faults:     opts.Faults,
		byURL:      map[string]*worker{},
		reaperStop: make(chan struct{}),
	}
	for _, u := range opts.Workers {
		c.addWorkerLocked(u, true)
	}
	return c, nil
}

// addWorkerLocked appends a fleet member; the caller holds fleetMu (or,
// in New, has exclusive access).
func (c *Coordinator) addWorkerLocked(url string, permanent bool) *worker {
	ctx, cancel := context.WithCancel(context.Background())
	w := &worker{
		client:    NewClient(url, c.opts.HTTP),
		br:        retry.NewBreaker(c.opts.BreakerThreshold, c.opts.BreakerCooldown),
		permanent: permanent,
		ctx:       ctx,
		cancel:    cancel,
	}
	c.workers = append(c.workers, w)
	c.byURL[w.client.URL()] = w
	return w
}

// Close stops the lease reaper. In-flight dispatches are unaffected.
func (c *Coordinator) Close() {
	c.reaperOnce.Do(func() {}) // ensure a later Register cannot restart it
	c.closeOnce.Do(func() { close(c.reaperStop) })
}

// Register adds the worker at url to the fleet (or revives/refreshes an
// existing member) and grants it a heartbeat lease. It reports whether
// the worker is new to the fleet, plus the lease TTL the worker should
// heartbeat well within. The first registration starts the lease
// reaper.
func (c *Coordinator) Register(url string) (isNew bool, ttl time.Duration) {
	url = normalizeURL(url)
	c.fleetMu.Lock()
	w, ok := c.byURL[url]
	if !ok {
		w = c.addWorkerLocked(url, false)
		isNew = true
	}
	if w.expired || w.draining {
		// A comeback: the process restarted (or un-drained). Fresh
		// dispatch context and a clean breaker — the old failure streak
		// belonged to the old process.
		w.expired = false
		w.draining = false
		w.ctx, w.cancel = context.WithCancel(context.Background())
		w.br = retry.NewBreaker(c.opts.BreakerThreshold, c.opts.BreakerCooldown)
		isNew = true
	}
	w.registered = true
	w.lease = time.Now()
	c.fleetMu.Unlock()

	c.reaperOnce.Do(func() { go c.reap() })
	return isNew, c.opts.LeaseTTL
}

// Heartbeat renews the lease for the worker at url, reporting false if
// the worker is unknown or no longer live (it should re-register). A
// fault rule at cluster.heartbeat drops the heartbeat, which is how the
// chaos suite rehearses lease expiry with the worker still healthy.
func (c *Coordinator) Heartbeat(ctx context.Context, url string) bool {
	if err := c.faults.Fire(ctx, fault.SiteClusterHeartbeat); err != nil {
		return false
	}
	url = normalizeURL(url)
	c.fleetMu.Lock()
	defer c.fleetMu.Unlock()
	w, ok := c.byURL[url]
	if !ok || w.expired || w.draining || !w.registered {
		return false
	}
	w.lease = time.Now()
	return true
}

// Deregister removes the worker at url from dispatch immediately — the
// graceful-drain handshake. Its in-flight points finish normally (the
// worker is draining them, not dying), but no new point lands on it.
func (c *Coordinator) Deregister(url string) {
	url = normalizeURL(url)
	c.fleetMu.Lock()
	defer c.fleetMu.Unlock()
	if w, ok := c.byURL[url]; ok {
		w.draining = true
	}
}

// reap expires stale leases: a registered, non-permanent worker whose
// lease outlives LeaseTTL is marked expired and its dispatch context
// cancelled, so every point in flight on it fails over to live peers
// right away instead of waiting out transport timeouts.
func (c *Coordinator) reap() {
	t := time.NewTicker(max(c.opts.LeaseTTL/4, 10*time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-c.reaperStop:
			return
		case <-t.C:
		}
		var cancels []context.CancelFunc
		c.fleetMu.Lock()
		for _, w := range c.workers {
			if !w.registered || w.permanent || w.expired || w.draining {
				continue
			}
			if time.Since(w.lease) > c.opts.LeaseTTL {
				w.expired = true
				cancels = append(cancels, w.cancel)
				c.leaseExpiries.Add(1)
			}
		}
		c.fleetMu.Unlock()
		for _, cancel := range cancels {
			cancel()
		}
	}
}

// dispatchable reports whether w may receive new points, under fleetMu.
func (w *worker) dispatchableLocked() bool {
	return !w.draining && !w.expired
}

// snapshotFleet returns the current dispatchable workers.
func (c *Coordinator) snapshotFleet() []*worker {
	c.fleetMu.RLock()
	defer c.fleetMu.RUnlock()
	out := make([]*worker, 0, len(c.workers))
	for _, w := range c.workers {
		if w.dispatchableLocked() {
			out = append(out, w)
		}
	}
	return out
}

// Health reports every worker's current state without touching the
// network: healthy means membership and breaker both admit dispatches.
func (c *Coordinator) Health() []service.WorkerStatus {
	c.fleetMu.RLock()
	defer c.fleetMu.RUnlock()
	out := make([]service.WorkerStatus, len(c.workers))
	for i, w := range c.workers {
		state, opens := w.br.State()
		ms := "active"
		switch {
		case w.draining:
			ms = "draining"
		case w.expired:
			ms = "expired"
		}
		leaseAge := int64(-1)
		if w.registered {
			leaseAge = time.Since(w.lease).Milliseconds()
		}
		w.mu.Lock()
		out[i] = service.WorkerStatus{
			URL:          w.client.URL(),
			Healthy:      w.dispatchableLocked() && state != retry.Open,
			State:        ms,
			Permanent:    w.permanent,
			Registered:   w.registered,
			LeaseAgeMs:   leaseAge,
			Inflight:     w.inflight,
			Dispatched:   w.dispatched,
			Completed:    w.completed,
			Failed:       w.failed,
			Breaker:      state.String(),
			BreakerOpens: opens,
		}
		w.mu.Unlock()
	}
	return out
}

// Status is the fleet view behind readiness and /metrics: Health plus
// the fleet counts. The caller fills the fields the coordinator does
// not own (MinWorkers, JournalReplays).
func (c *Coordinator) Status() *service.ClusterStatus {
	cs := &service.ClusterStatus{Workers: c.Health(), LeaseExpiries: c.leaseExpiries.Load()}
	cs.Total = len(cs.Workers)
	for _, w := range cs.Workers {
		if w.Healthy {
			cs.Live++
			if w.Registered {
				cs.Registered++
			}
		}
	}
	cs.Reachable = cs.Live // alias for the probe-based field this replaced
	return cs
}

// pick selects the worker for one dispatch attempt: the least-loaded
// admissible worker, ties to the earliest member. avoid names a worker
// that just failed this point, or that holds it when a hedge fires; it
// is used only when it is the only admissible one. Returns nil when no
// worker is dispatchable.
func (c *Coordinator) pick(avoid *worker) *worker {
	fleet := c.snapshotFleet()
	type cand struct {
		w    *worker
		load int
	}
	cands := make([]cand, 0, len(fleet))
	for _, w := range fleet {
		cands = append(cands, cand{w, w.load()})
	}
	// By load, ties to the earlier member; the avoided worker goes last.
	sort.SliceStable(cands, func(i, j int) bool {
		if ai, aj := cands[i].w == avoid, cands[j].w == avoid; ai != aj {
			return aj
		}
		return cands[i].load < cands[j].load
	})
	// Allow() is side-effectful (a half-open breaker admits exactly one
	// probe), so it is asked only about the worker actually chosen.
	for _, cd := range cands {
		if cd.w.br.Allow() {
			return cd.w
		}
	}
	return nil
}

// Run executes one config on the fleet and returns its result — the
// signature of runner.Options.Sim, which is exactly how the
// coordinator's hbserved wires it in: the service's queue, dedup,
// breaker, and SSE machinery all stay, only "simulate" now means
// "dispatch to a worker". The point runs as a primary attempt chain,
// with cross-worker reassignment on failure, plus one hedged duplicate
// on a different worker if the primary outlives HedgeAfter. The first
// success wins and cancels the other chain.
func (c *Coordinator) Run(ctx context.Context, cfg sim.Config) (sim.Result, error) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Buffered for both chains, so the losing one never blocks on send
	// after Run returns.
	ch := make(chan outcome, 2)
	// primary is the worker the primary chain is on, which the hedge
	// avoids.
	var primary atomic.Pointer[worker]
	launch := func(avoid *worker, cur *atomic.Pointer[worker]) {
		res, err := c.attemptChain(cctx, cfg, avoid, cur)
		ch <- outcome{res: res, err: err}
	}
	go launch(nil, &primary)
	inflight := 1

	var hedgeC <-chan time.Time
	if c.opts.HedgeAfter > 0 {
		t := time.NewTimer(c.opts.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}

	var firstErr error
	for {
		select {
		case o := <-ch:
			if o.err == nil {
				return o.res, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			inflight--
			if inflight == 0 {
				return sim.Result{}, firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			inflight++
			go launch(primary.Load(), nil)
		}
	}
}

// outcome is one dispatch attempt chain's final word on a point.
type outcome struct {
	res sim.Result
	err error
}

// retryLimit is the attempt bound for one chain: the configured value,
// or 2× the current fleet size (floor 4) so the bound tracks a fleet
// that grows or shrinks mid-sweep.
func (c *Coordinator) retryLimit() int {
	if c.opts.DispatchRetries > 0 {
		return c.opts.DispatchRetries
	}
	c.fleetMu.RLock()
	n := len(c.workers)
	c.fleetMu.RUnlock()
	return max(4, 2*n)
}

// attemptChain tries a point on up to retryLimit workers, with backoff
// between attempts: transport and protocol failures rotate to the next
// worker (reassignment); a job that *ran* and failed is deterministic
// and surfaces immediately. avoid is a worker to try last; cur, when
// non-nil, is kept pointing at the worker of the current attempt. An
// empty fleet waits out JoinGrace for the first registration instead
// of burning attempts — a sweep submitted before any worker exists
// completes once one joins.
func (c *Coordinator) attemptChain(ctx context.Context, cfg sim.Config, avoid *worker, cur *atomic.Pointer[worker]) (sim.Result, error) {
	var lastErr error
	start := time.Now()
	for attempt := 0; attempt < c.retryLimit(); attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		w := c.pick(avoid)
		if w == nil {
			lastErr = ErrNoWorkers
			if len(c.snapshotFleet()) == 0 && time.Since(start) < c.opts.JoinGrace {
				// Nothing to dispatch to yet; wait for a registration
				// without consuming retry budget.
				if !retry.Sleep(ctx, 50*time.Millisecond) {
					break
				}
				attempt--
				continue
			}
			if !retry.Backoff(ctx, c.opts.RetryBackoff, attempt) {
				break
			}
			continue
		}
		if cur != nil {
			cur.Store(w)
		}
		res, err := c.runOn(ctx, w, cfg)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if JobFailed(err) || ctx.Err() != nil {
			return sim.Result{}, err
		}
		// This worker failed the point at the transport level: try a
		// different worker next.
		avoid = w
		if !retry.Backoff(ctx, c.opts.RetryBackoff, attempt) {
			break
		}
	}
	return sim.Result{}, fmt.Errorf("cluster: dispatch exhausted after retries: %w", lastErr)
}

// runOn dispatches one point to one worker and waits for its terminal
// state, updating that worker's health and counters. The dispatch runs
// under the worker's membership context too: a lease expiry mid-flight
// cancels it, so the point reassigns immediately.
func (c *Coordinator) runOn(ctx context.Context, w *worker, cfg sim.Config) (sim.Result, error) {
	if err := c.faults.Fire(ctx, fault.SiteClusterDispatch); err != nil {
		w.br.Report(false)
		w.mu.Lock()
		w.failed++
		w.mu.Unlock()
		return sim.Result{}, err
	}
	if c.opts.Journal != nil {
		if key, err := runner.Key(cfg); err == nil {
			// Best-effort forensics: which worker held the point. Replay
			// does not depend on dispatch records, so append errors are
			// not dispatch errors.
			c.opts.Journal.Append(Record{Type: RecordDispatch, Key: key, Worker: w.client.URL()})
		}
	}
	w.mu.Lock()
	w.inflight++
	w.dispatched++
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.inflight--
		w.mu.Unlock()
	}()

	// Bind the dispatch to the worker's membership: lease expiry cancels
	// every in-flight point on it (reassignment), without touching the
	// caller's ctx.
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(w.ctx, cancel)
	defer stop()

	fail := func(err error) (sim.Result, error) {
		w.br.Report(false)
		w.mu.Lock()
		w.failed++
		w.mu.Unlock()
		return sim.Result{}, fmt.Errorf("cluster: worker %s: %w", w.client.URL(), err)
	}

	view, err := w.client.SubmitJob(dctx, cfg)
	if err != nil {
		return fail(err)
	}
	if !view.State.Terminal() {
		view, err = w.client.AwaitJob(dctx, view.ID)
		if err != nil {
			return fail(err)
		}
	}
	// The worker answered end to end: transport-wise it is healthy,
	// whatever the job's own verdict.
	w.br.Report(true)
	if view.State == service.StateFailed {
		return sim.Result{}, fmt.Errorf("%w %s: %s", errJobFailed, w.client.URL(), view.Error)
	}
	if view.Result == nil {
		return fail(fmt.Errorf("job %s done without a result", view.ID))
	}
	w.mu.Lock()
	w.completed++
	w.mu.Unlock()
	return *view.Result, nil
}
