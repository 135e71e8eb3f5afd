package sim

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"hbcache/internal/cpu"
	"hbcache/internal/fault"
	"hbcache/internal/isa"
	"hbcache/internal/mem"
	"hbcache/internal/workload"
)

// This file is the simulation kernel: one goroutine steps a batch of
// independent simulations ("lanes") in lockstep rounds of runChunk
// retired instructions, each lane driven by machine.step. A single run
// is a batch of one. Batching exploits two redundancies a sweep's
// points share:
//
//   - The instruction stream depends only on (benchmark, seed), never
//     on the timing or memory configuration, so fresh exhaustive lanes
//     with the same stream key read one shared generator through a
//     ring buffer instead of each paying stream synthesis (~half the
//     wall time of a single run). A lane alone on its stream reads its
//     own source directly.
//   - The functional prewarm's state depends only on the stream and
//     the cache geometry (mem.WarmStateKey), so sweep points that
//     differ in ports, latencies, or line buffers share one warm
//     replay: a leader lane replays the stream through its arrays and
//     followers copy the result.
//
// Per-lane state (core, hierarchy, predictor, checkers) stays fully
// independent — batched results are bit-identical to single runs,
// which the batch identity tests pin against the golden corpus across
// every workload and organization, including the differential stream
// hash.

// ringInit is the shared stream ring's initial capacity in
// instructions (a power of two). Lanes of one stream advance in equal
// rounds, so their cursors stay within about one runChunk plus a
// window of each other; the ring grows only under pathological skew.
const ringInit = 1 << 14

// warmChunk is the functional drain's chunk in instructions.
const warmChunk = 4096

// streamKey groups lanes that can share one generated stream: the
// stream itself depends on (benchmark, seed) — or, for trace-backed
// configs, on the trace's content digest — and the phase offsets along
// it on the instruction windows and prewarm mode.
type streamKey struct {
	benchmark string
	seed      uint64
	trace     string
	prewarm   uint64
	warmup    uint64
	measure   uint64
	mode      PrewarmMode
}

// streamKeyOf is the stream key of a resolved config.
func streamKeyOf(rcfg Config) streamKey {
	var traceKey string
	if rcfg.Trace != nil {
		// Digest is the content address; a path-only ref falls back
		// to the path so unresolved lanes still group consistently.
		if traceKey = rcfg.Trace.Digest; traceKey == "" {
			traceKey = "path:" + rcfg.Trace.Path
		}
	}
	return streamKey{rcfg.Benchmark, rcfg.Seed, traceKey, rcfg.PrewarmInsts, rcfg.WarmupInsts, rcfg.MeasureInsts, rcfg.PrewarmMode}
}

// StreamGroups partitions cfgs by the stream they read — the key the
// batch kernel shares streams on — returning each group's indices
// ordered by first appearance of their warm-state key
// (mem.WarmStateKey), in submission order within one key, and groups
// in order of first appearance. Schedulers use it to run same-stream
// configs together: as the lanes of one batch, or back to back so
// they share a PrewarmCache prefix and, one cache geometry after
// another, its finished warm state.
func StreamGroups(cfgs []Config) [][]int {
	idx := make([]int, len(cfgs))
	for i := range idx {
		idx[i] = i
	}
	groups := groupByFirst(idx, func(i int) streamKey { return streamKeyOf(cfgs[i].WithDefaults()) })
	for g, members := range groups {
		groups[g] = slices.Concat(groupByFirst(members, func(i int) string { return mem.WarmStateKey(cfgs[i].Memory) })...)
	}
	return groups
}

// groupByFirst partitions xs by key, each group keeping xs's order and
// groups in order of their key's first appearance.
func groupByFirst[T any, K comparable](xs []T, key func(T) K) [][]T {
	var groups [][]T
	byKey := make(map[K]int, len(xs))
	for _, x := range xs {
		k := key(x)
		g, ok := byKey[k]
		if !ok {
			g = len(groups)
			byKey[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], x)
	}
	return groups
}

// bstream is one shared instruction stream: a master source and a
// ring of its records, read by each lane through its own cursor.
// Records below every live cursor are discarded at fill time.
type bstream struct {
	gen   workload.Source
	limit uint64 // absolute stream position where the source ends
	lanes []*lane

	buf  []isa.Inst
	mask uint64
	base uint64 // oldest retained absolute stream position
	next uint64 // first ungenerated absolute stream position
}

func (st *bstream) minCursor() uint64 {
	min := ^uint64(0)
	for _, ln := range st.lanes {
		if !ln.settled && ln.rd.pos < min {
			min = ln.rd.pos
		}
	}
	if min == ^uint64(0) {
		return st.next
	}
	return min
}

// fill generates records up to absolute position target, first
// compacting consumed records and growing the ring if the live span
// would not fit.
func (st *bstream) fill(target uint64) {
	st.base = st.minCursor()
	if need := target - st.base; need > uint64(len(st.buf)) {
		st.grow(need)
	}
	for st.next < target {
		i := st.next & st.mask
		span := uint64(len(st.buf)) - i
		if left := target - st.next; span > left {
			span = left
		}
		st.gen.Fill(st.buf[i : i+span])
		st.next += span
	}
}

func (st *bstream) grow(need uint64) {
	newCap := uint64(len(st.buf))
	for newCap < need {
		newCap *= 2
	}
	nb := make([]isa.Inst, newCap)
	for p := st.base; p < st.next; p++ {
		nb[p&(newCap-1)] = st.buf[p&st.mask]
	}
	st.buf, st.mask = nb, newCap-1
}

// laneReader is a lane's cursor into its stream's ring; it implements
// isa.Reader for the lane's core.
type laneReader struct {
	st  *bstream
	pos uint64
}

// Next implements isa.Reader. A synthetic stream is unbounded, so ok
// is always true; a trace-backed stream ends at its recorded limit,
// matching the single-run TraceReader exactly. Reads past the
// generated frontier trigger a chunked refill.
func (r *laneReader) Next() (isa.Inst, bool) {
	st := r.st
	if r.pos >= st.limit {
		return isa.Inst{}, false
	}
	if r.pos >= st.next {
		st.fill(r.pos + runChunk)
	}
	inst := st.buf[r.pos&st.mask]
	r.pos++
	return inst, true
}

// lane is one simulation of the batch. A lane reads its stream either
// through a cursor into a shared ring (rd set) or, when no other fresh
// exhaustive lane shares its stream, straight from its own source,
// exactly as an unbatched run would.
type lane struct {
	cfg     Config          // resolved
	src     workload.Source // the lane's own source, or its stream's master
	m       *machine
	rd      *laneReader
	settled bool
	res     Result
	err     error
}

func (ln *lane) fail(err error) {
	ln.err = err
	ln.settled = true
}

// step advances the lane by at most one runChunk and reports whether
// it settled (finished or failed).
func (ln *lane) step() bool {
	done, err := ln.m.step()
	if err != nil {
		ln.fail(err)
		return true
	}
	if done {
		ln.res = ln.m.result()
		ln.settled = true
	}
	return done
}

// Batch is a set of lanes stepping in lockstep rounds. Construct with
// NewBatch, drive with Step until it returns false, collect with
// Results, and release the watcher with Close — or use RunBatch,
// which does all of that.
type Batch struct {
	cancel      context.CancelFunc
	watcherDone chan struct{}
	stop        *atomic.Bool // batch-wide stop: cancellation / wall budget

	streams []*bstream
	lanes   []lane
	active  []*lane
	warmed  bool
	closed  bool
}

// NewBatch assembles a batch of simulations over cfgs. Each lane's
// hierarchy and core are built exactly as a single run's are, with
// mem.NewSystem and cpu.New; what lanes share is a stream ring and,
// at prewarm, a warm-state replay. Per-lane configuration errors —
// and, for a batch of one, an unusable RunOpts.Resume snapshot —
// settle that lane and leave the rest of the batch to run. A global
// error is returned only for snapshot options on a batch of two or
// more (snapshots are one run's state) or a fault-injection failure at
// fault.SiteSimRun.
func NewBatch(ctx context.Context, cfgs []Config, opts RunOpts) (*Batch, error) {
	if len(cfgs) > 1 && (opts.Resume != "" || opts.SnapshotPath != "" || opts.SnapshotPrewarm != "" || opts.SnapshotOnAbort != "") {
		return nil, fmt.Errorf("%w: snapshot options are one run's state and apply only to a batch of one (use RunContext or BatchSize 1)", ErrInvalidConfig)
	}
	// The wall budget is installed before anything else so even the
	// fault site (where chaos tests park hangs) is bounded by it.
	rctx, cancel := context.WithCancel(ctx)
	if opts.Timeout > 0 {
		rctx, cancel = context.WithTimeout(ctx, opts.Timeout)
	}
	if err := opts.Faults.Fire(rctx, fault.SiteSimRun); err != nil {
		cancel()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("%w: %v", ErrAborted, err)
			}
			return nil, fmt.Errorf("%w: wall budget of %v exhausted", ErrBudget, opts.Timeout)
		}
		return nil, err
	}

	b := &Batch{cancel: cancel, stop: new(atomic.Bool), watcherDone: make(chan struct{})}
	b.lanes = make([]lane, len(cfgs))

	// Resolve configs and count the fresh exhaustive lanes of each
	// stream: only a stream read by two or more of them is worth a
	// shared ring. Sampled lanes fast-forward mid-measure and resumed
	// lanes start mid-stream, so both always read their own source.
	readers := make(map[streamKey]int, len(cfgs))
	for i, cfg := range cfgs {
		ln := &b.lanes[i]
		ln.cfg = cfg.WithDefaults()
		if err := ln.cfg.Sample.validate(ln.cfg.MeasureInsts); err != nil {
			ln.fail(err)
		} else if ln.cfg.Sample != nil && opts.Resume != "" {
			ln.fail(fmt.Errorf("%w: sampled runs cannot resume from a snapshot", ErrInvalidConfig))
		} else if ln.cfg.Sample == nil && opts.Resume == "" {
			readers[streamKeyOf(ln.cfg)]++
		}
	}
	// Build every viable lane the way a single run is built. A lane
	// on a shared stream reads it through its own ring cursor.
	byKey := make(map[streamKey]*bstream)
	for i := range b.lanes {
		ln := &b.lanes[i]
		if ln.settled {
			continue
		}
		var rd isa.Reader // nil: the lane reads a source of its own
		if key := streamKeyOf(ln.cfg); ln.cfg.Sample == nil && opts.Resume == "" && readers[key] > 1 {
			st, ok := byKey[key]
			if !ok {
				gen, err := ln.cfg.newSource()
				if err != nil {
					ln.fail(err)
					continue
				}
				st = &bstream{gen: gen, limit: sourceLimit(gen), buf: make([]isa.Inst, ringInit), mask: ringInit - 1}
				byKey[key] = st
				b.streams = append(b.streams, st)
			}
			ln.src, ln.rd = st.gen, &laneReader{st: st}
			st.lanes = append(st.lanes, ln)
			rd = ln.rd
		}
		src, sys, core, err := ln.cfg.construct(rd)
		if err != nil {
			ln.fail(err)
			continue
		}
		if rd == nil {
			ln.src = src
		}
		// Each lane owns its stop flag so one lane's invariant
		// violation or cycle budget halts only that lane.
		m := assembleMachine(ctx, ln.cfg, opts, new(atomic.Bool), ln.src, sys, core)
		m.done = rctx.Done()
		if opts.Resume != "" {
			if err := m.resume(opts.Resume); err != nil {
				ln.fail(err)
				continue
			}
		}
		core.SetBudget(m.stop, m.effMax)
		ln.m = m
	}

	// One watcher folds caller cancellation and the wall budget into
	// every lane's stop flag; Close reaps it.
	go func() {
		defer close(b.watcherDone)
		<-rctx.Done()
		b.stop.Store(true)
		for i := range b.lanes {
			if m := b.lanes[i].m; m != nil {
				m.stop.Store(true)
			}
		}
	}()
	return b, nil
}

// prewarm brings every fresh lane to the start of its first timed
// phase: lanes on a shared ring through their stream's shared replay,
// lanes on their own source through their machine's own prewarm.
func (b *Batch) prewarm() {
	for _, st := range b.streams {
		b.prewarmStream(st)
	}
	for i := range b.lanes {
		ln := &b.lanes[i]
		if ln.settled || ln.rd != nil || ln.m.phase != "" {
			continue
		}
		if err := ln.m.prewarm(); err != nil {
			ln.fail(err)
		}
	}
}

// abortStream settles every live lane of the stream with its own
// classified abort error (the stop that interrupts a shared prewarm is
// batch-wide: cancellation or the wall budget).
func (b *Batch) abortStream(st *bstream) {
	for _, ln := range st.lanes {
		if !ln.settled {
			ln.fail(ln.m.abortErr())
		}
	}
}

// prewarmStream prewarms a shared stream's lanes, sharing the region
// sweep and functional replay between lanes whose warm state cannot
// differ (same stream, same mem.WarmStateKey).
func (b *Batch) prewarmStream(st *bstream) {
	// Group the stream's viable lanes by warm-state key; the first lane
	// of each group replays, the rest copy its state.
	var live []*lane
	for _, ln := range st.lanes {
		if !ln.settled {
			live = append(live, ln)
		}
	}
	if len(live) == 0 {
		return
	}
	groups := groupByFirst(live, func(ln *lane) string { return mem.WarmStateKey(ln.cfg.Memory) })
	cfg := live[0].cfg // windows and mode are stream-uniform

	// Region sweep, leaders only.
	for _, g := range groups {
		if err := g[0].m.sweep(); err != nil {
			b.abortStream(st)
			return
		}
	}
	if cfg.PrewarmMode != PrewarmTiming {
		// Functional replay: drain the stream's prewarm prefix once,
		// fanning memory references to each group leader and branch
		// outcomes to every lane's own predictor — predictor state
		// depends on the CPU config, so it is never shared.
		var leaders []*mem.System
		var preds []*cpu.Predictor
		for _, g := range groups {
			leaders = append(leaders, g[0].m.sys)
			for _, ln := range g {
				preds = append(preds, ln.m.core.Predictor())
			}
		}
		if !drain(st.gen, cfg.PrewarmInsts, leaders, preds, b.stop, nil, new(drainBuf)) {
			b.abortStream(st)
			return
		}
	}
	// Followers copy their leader's warm state. Timing-mode prewarm
	// then runs through each lane's pipeline; only the sweep state was
	// shareable.
	var warm mem.WarmState
	for _, g := range groups {
		if len(g) == 1 {
			continue
		}
		g[0].m.sys.CaptureWarm(&warm)
		for _, f := range g[1:] {
			if err := f.m.sys.ApplyWarm(&warm); err != nil {
				f.fail(fmt.Errorf("%w: %v", ErrInvalidConfig, err))
			}
		}
	}
	if cfg.PrewarmMode == PrewarmTiming {
		for _, ln := range st.lanes {
			if !ln.settled {
				ln.m.phase, ln.m.remaining = phasePrewarm, ln.cfg.PrewarmInsts
			}
		}
		return
	}
	// The timed stream begins where the replay left off: align the ring
	// and every cursor to the generator's position, exactly as a lone
	// lane's core picks up its already-advanced source.
	pos := st.gen.Emitted()
	st.base, st.next = pos, pos
	for _, ln := range st.lanes {
		ln.rd.pos = pos
		if !ln.settled {
			ln.m.phase, ln.m.remaining = phaseWarmup, ln.cfg.WarmupInsts
		}
	}
}

// Step drives the batch one round: the first call performs the
// prewarm, each later call advances every active lane by one timed
// chunk, retiring settled lanes in place with a swap-remove. It
// reports whether any lane is still running.
func (b *Batch) Step() bool {
	if !b.warmed {
		b.warmed = true
		b.prewarm()
		for i := range b.lanes {
			if ln := &b.lanes[i]; !ln.settled {
				b.active = append(b.active, ln)
			}
		}
		return len(b.active) > 0
	}
	for i := 0; i < len(b.active); {
		ln := b.active[i]
		if ln.step() {
			last := len(b.active) - 1
			b.active[i] = b.active[last]
			b.active[last] = nil
			b.active = b.active[:last]
		} else {
			i++
		}
	}
	return len(b.active) > 0
}

// Active reports how many lanes are still running.
func (b *Batch) Active() int { return len(b.active) }

// Results returns every lane's result and error in config order. A
// lane that has not settled reports an error; RunBatch always drives
// the batch to completion first.
func (b *Batch) Results() ([]Result, []error) {
	res := make([]Result, len(b.lanes))
	errs := make([]error, len(b.lanes))
	for i := range b.lanes {
		ln := &b.lanes[i]
		if !ln.settled {
			errs[i] = fmt.Errorf("sim: batch lane %d not settled; drive Step to completion", i)
			continue
		}
		res[i], errs[i] = ln.res, ln.err
	}
	return res, errs
}

// Close cancels the batch's deadline and reaps the watcher goroutine.
// Safe to call more than once.
func (b *Batch) Close() {
	if b.closed {
		return
	}
	b.closed = true
	b.cancel()
	<-b.watcherDone
}

// RunBatch executes cfgs as one lockstep batch under ctx, returning
// results and errors in config order. Each lane's result is
// bit-identical to running its config alone through RunContext with
// the same options — including the differential stream hash.
func RunBatch(ctx context.Context, cfgs []Config, opts RunOpts) ([]Result, []error) {
	b, err := NewBatch(ctx, cfgs, opts)
	if err != nil {
		errs := make([]error, len(cfgs))
		for i := range errs {
			errs[i] = err
		}
		return make([]Result, len(cfgs)), errs
	}
	defer b.Close()
	for b.Step() {
	}
	return b.Results()
}
