package sim

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"hbcache/internal/cpu"
	"hbcache/internal/fault"
	"hbcache/internal/isa"
	"hbcache/internal/mem"
	"hbcache/internal/workload"
)

// This file is the batch-parallel simulation kernel: one goroutine
// steps a batch of independent simulations ("lanes") in lockstep
// rounds of runChunk retired instructions. Batching exploits two
// redundancies a sweep's points share:
//
//   - The instruction stream depends only on (benchmark, seed), never
//     on the timing or memory configuration, so lanes with the same
//     stream key read one shared generator through a ring buffer
//     instead of each paying stream synthesis (~half the wall time of
//     a single run).
//   - The functional prewarm's state depends only on the stream and
//     the cache geometry (mem.WarmStateKey), so sweep points that
//     differ in ports, latencies, or line buffers share one warm
//     replay: a leader lane replays the stream through its arrays and
//     followers copy the result.
//
// Per-lane state (core, hierarchy, predictor, checkers) stays fully
// independent — batched results are bit-identical to single runs,
// which the batch identity tests pin across every workload and
// organization, including the differential stream hash.

// ringInit is the shared stream ring's initial capacity in
// instructions (a power of two). Lanes of one stream advance in equal
// rounds, so their cursors stay within about one runChunk plus a
// window of each other; the ring grows only under pathological skew.
const ringInit = 1 << 14

// warmChunk is the functional prewarm's drain chunk, matching
// machine.fastForward so the warm replay is structured identically.
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
// batch kernel shares streams on — returning each group's indices in
// submission order, groups in order of first appearance. Schedulers
// use it to run same-stream configs together: as the lanes of one
// batch, or back to back so they share a PrewarmCache entry.
func StreamGroups(cfgs []Config) [][]int {
	var groups [][]int
	byKey := make(map[streamKey]int, len(cfgs))
	for i, cfg := range cfgs {
		key := streamKeyOf(cfg.WithDefaults())
		g, ok := byKey[key]
		if !ok {
			g = len(groups)
			byKey[key] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
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

// lane is one simulation of the batch.
type lane struct {
	idx     int // position in the caller's config slice
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

// step advances the lane by at most one runChunk of its current
// phase, handling phase transitions exactly as machine.run does. It
// reports whether the lane settled (finished or failed).
func (ln *lane) step() bool {
	m := ln.m
	done, err := m.runTimedChunk()
	if err != nil {
		ln.fail(err)
		return true
	}
	if !done {
		return false
	}
	switch m.phase {
	case phasePrewarm:
		m.phase, m.remaining = phaseWarmup, m.cfg.WarmupInsts
	case phaseWarmup:
		m.captureBaselines()
		m.core.ResetStats()
		m.phase, m.remaining = phaseMeasure, m.cfg.MeasureInsts
	case phaseMeasure:
		ln.res = m.result(m.core.Stats())
		ln.settled = true
		return true
	}
	return false
}

// Batch is a set of lanes stepping in lockstep rounds. Construct with
// NewBatch, drive with Step until it returns false, collect with
// Results, and release the watcher with Close — or use RunBatch,
// which does all of that.
type Batch struct {
	ctx         context.Context // caller context, for abort classification
	cancel      context.CancelFunc
	watcherDone chan struct{}
	opts        RunOpts
	stop        *atomic.Bool // batch-wide stop: cancellation / wall budget

	streams []*bstream
	lanes   []*lane
	active  []*lane
	warmed  bool
	closed  bool
}

// NewBatch assembles a batch of simulations over cfgs. Lanes are
// constructed with the batch's hierarchies and cores packed into
// shared structure-of-arrays backing (mem.NewSystemBatch,
// cpu.NewBatch). Per-lane configuration errors settle that lane with
// a wrapped ErrInvalidConfig and leave the rest of the batch to run;
// a global error is returned only for options the batch form cannot
// honor (snapshots are per-run state, so Resume/Snapshot* are
// rejected) or a fault-injection failure at fault.SiteSimRun.
func NewBatch(ctx context.Context, cfgs []Config, opts RunOpts) (*Batch, error) {
	if opts.Resume != "" || opts.SnapshotPath != "" || opts.SnapshotPrewarm != "" || opts.SnapshotOnAbort != "" {
		return nil, fmt.Errorf("%w: snapshot options are per-run state and cannot apply to batch lanes (use RunContext or BatchSize 1)", ErrInvalidConfig)
	}
	rctx, cancel := context.WithCancel(ctx)
	if opts.Timeout > 0 {
		rctx, cancel = context.WithTimeout(ctx, opts.Timeout)
	}
	// The fault site fires once per batch, bounded by the wall budget
	// like RunContext's per-run fire.
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

	b := &Batch{ctx: ctx, cancel: cancel, opts: opts, stop: new(atomic.Bool), watcherDone: make(chan struct{})}
	b.lanes = make([]*lane, len(cfgs))

	// Resolve configs and group lanes onto shared streams.
	byKey := make(map[streamKey]*bstream)
	resolved := make([]Config, len(cfgs))
	for i, cfg := range cfgs {
		ln := &lane{idx: i}
		b.lanes[i] = ln
		rcfg := cfg.WithDefaults()
		resolved[i] = rcfg
		if rcfg.Sample != nil {
			ln.fail(fmt.Errorf("%w: sampled configs run per-lane; use RunContext (the runner routes them automatically)", ErrInvalidConfig))
			continue
		}
		key := streamKeyOf(rcfg)
		st, ok := byKey[key]
		if !ok {
			gen, err := rcfg.newSource()
			if err != nil {
				ln.fail(err)
				continue
			}
			st = &bstream{gen: gen, limit: sourceLimit(gen), buf: make([]isa.Inst, ringInit), mask: ringInit - 1}
			byKey[key] = st
			b.streams = append(b.streams, st)
		}
		ln.rd = &laneReader{st: st}
		st.lanes = append(st.lanes, ln)
	}

	// Build the hierarchies and cores of all viable lanes with batch
	// (structure-of-arrays) storage.
	var build []*lane
	var memCfgs []mem.SystemConfig
	for i, ln := range b.lanes {
		if !ln.settled {
			build = append(build, ln)
			memCfgs = append(memCfgs, resolved[i].Memory)
		}
	}
	systems, memErrs := mem.NewSystemBatch(memCfgs)
	var coreLanes []*lane
	var coreCfgs []cpu.Config
	var readers []isa.Reader
	var dmems []cpu.DataMemory
	sysFor := make(map[*lane]*mem.System, len(build))
	for j, ln := range build {
		if memErrs[j] != nil {
			ln.fail(fmt.Errorf("%w: %v", ErrInvalidConfig, memErrs[j]))
			continue
		}
		sysFor[ln] = systems[j]
		coreLanes = append(coreLanes, ln)
		coreCfgs = append(coreCfgs, resolved[ln.idx].CPU)
		readers = append(readers, ln.rd)
		dmems = append(dmems, systems[j].L1)
	}
	cores, cpuErrs := cpu.NewBatch(coreCfgs, readers, dmems)
	for k, ln := range coreLanes {
		if cpuErrs[k] != nil {
			ln.fail(fmt.Errorf("%w: %v", ErrInvalidConfig, cpuErrs[k]))
			continue
		}
		// Each lane owns its stop flag so one lane's invariant
		// violation or cycle budget halts only that lane.
		laneStop := new(atomic.Bool)
		ln.m = assembleMachine(ctx, resolved[ln.idx], opts, laneStop, ln.rd.st.gen, sysFor[ln], cores[k])
		cores[k].SetBudget(laneStop, opts.MaxCycles)
	}

	// One watcher folds caller cancellation and the wall budget into
	// every lane's stop flag; Close reaps it.
	go func() {
		defer close(b.watcherDone)
		<-rctx.Done()
		b.stop.Store(true)
		for _, ln := range b.lanes {
			if ln.m != nil {
				ln.m.stop.Store(true)
			}
		}
	}()
	return b, nil
}

// prewarm brings every lane to the start of its first timed phase,
// sharing the region sweep and functional replay between lanes whose
// warm state cannot differ (same stream, same mem.WarmStateKey).
func (b *Batch) prewarm() {
	for _, st := range b.streams {
		b.prewarmStream(st)
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

func (b *Batch) prewarmStream(st *bstream) {
	// Group the stream's viable lanes by warm-state key; the first lane
	// of each group replays, the rest copy its state.
	groups := make(map[string][]*lane)
	var order []string
	for _, ln := range st.lanes {
		if ln.settled {
			continue
		}
		k := mem.WarmStateKey(ln.m.cfg.Memory)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], ln)
	}
	if len(order) == 0 {
		return
	}
	cfg := groups[order[0]][0].m.cfg // windows and mode are stream-uniform

	// Region sweep, leaders only.
	for _, k := range order {
		if err := groups[k][0].m.sweep(); err != nil {
			b.abortStream(st)
			return
		}
	}

	if cfg.PrewarmMode == PrewarmTiming {
		// Timing-mode prewarm runs through each lane's pipeline; only
		// the sweep state is shareable.
		for _, k := range order {
			g := groups[k]
			for _, f := range g[1:] {
				if err := mem.CopyWarmState(f.m.sys, g[0].m.sys); err != nil {
					f.fail(fmt.Errorf("%w: %v", ErrInvalidConfig, err))
				}
			}
		}
		for _, ln := range st.lanes {
			if !ln.settled {
				ln.m.phase, ln.m.remaining = phasePrewarm, ln.m.cfg.PrewarmInsts
			}
		}
		return
	}

	// Functional replay: drain the stream's prewarm prefix once,
	// fanning memory references to each group leader and branch
	// outcomes to every lane's own predictor — predictor state depends
	// on the CPU config, so it is never shared.
	train := cfg.PrewarmMode != PrewarmStream
	leaders := make([]*lane, 0, len(order))
	for _, k := range order {
		leaders = append(leaders, groups[k][0])
	}
	var addrs, branches [warmChunk]uint64
	for left := cfg.PrewarmInsts; left > 0; {
		if b.stop.Load() {
			b.abortStream(st)
			return
		}
		chunk := len(addrs)
		if uint64(chunk) > left {
			chunk = int(left)
		}
		left -= uint64(chunk)
		na, nb := st.gen.Warm(chunk, addrs[:], branches[:])
		for _, ld := range leaders {
			sys := ld.m.sys
			for _, a := range addrs[:na] {
				sys.WarmTouch(a)
			}
		}
		if train {
			for _, k := range order {
				for _, ln := range groups[k] {
					pred := ln.m.core.Predictor()
					for _, br := range branches[:nb] {
						pred.Warm(br>>1, br&1 == 1)
					}
				}
			}
		}
	}
	// Followers copy their leader's warm state.
	for _, k := range order {
		g := groups[k]
		for _, f := range g[1:] {
			if err := mem.CopyWarmState(f.m.sys, g[0].m.sys); err != nil {
				f.fail(fmt.Errorf("%w: %v", ErrInvalidConfig, err))
			}
		}
	}
	// The timed stream begins where the replay left off: align the ring
	// and every cursor to the generator's position, exactly as a single
	// run's core picks up its already-advanced generator.
	pos := st.gen.Emitted()
	st.base, st.next = pos, pos
	for _, ln := range st.lanes {
		ln.rd.pos = pos
		if !ln.settled {
			ln.m.phase, ln.m.remaining = phaseWarmup, ln.m.cfg.WarmupInsts
		}
	}
}

// Step drives the batch one round: the first call performs the shared
// prewarm, each later call advances every active lane by one timed
// chunk, retiring settled lanes in place with a swap-remove. It
// reports whether any lane is still running.
func (b *Batch) Step() bool {
	if !b.warmed {
		b.warmed = true
		b.prewarm()
		for _, ln := range b.lanes {
			if !ln.settled {
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
	for i, ln := range b.lanes {
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
// results and errors in config order. Results are bit-identical to
// running each config through RunContext with the same options —
// including the differential stream hash. Sampled configs interleave
// timed and fast-forwarded spans, which the lockstep rounds cannot
// share, so they transparently fall back to the per-run path.
func RunBatch(ctx context.Context, cfgs []Config, opts RunOpts) ([]Result, []error) {
	results := make([]Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var idx []int
	var sub []Config
	for i, cfg := range cfgs {
		if cfg.WithDefaults().Sample != nil {
			results[i], errs[i] = RunContext(ctx, cfg, opts)
			continue
		}
		idx = append(idx, i)
		sub = append(sub, cfg)
	}
	if len(sub) == 0 {
		return results, errs
	}
	b, err := NewBatch(ctx, sub, opts)
	if err != nil {
		for _, i := range idx {
			errs[i] = err
		}
		return results, errs
	}
	defer b.Close()
	for b.Step() {
	}
	res, es := b.Results()
	for j, i := range idx {
		results[i], errs[i] = res[j], es[j]
	}
	return results, errs
}
