package sim

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"hbcache/internal/fault"
	"hbcache/internal/isa"
	"hbcache/internal/mem"
	"hbcache/internal/workload"
)

// This file is the simulation kernel: one goroutine steps a batch of
// independent simulations ("lanes") in lockstep rounds of runChunk
// retired instructions, each lane driven by machine.step. A single run
// is a batch of one.
//
// The instruction stream depends only on (benchmark, seed) — or a
// trace's content digest — never on the timing or memory
// configuration, so fresh exhaustive lanes with the same stream key
// read one shared source through a ring buffer instead of each paying
// stream synthesis (~half the wall time of a single run). A lane alone
// on its stream reads its own source directly. That ring is the only
// thing a batch does that a lone run does not: every lane prewarms
// exactly as a lone run does, from a source of its own, and shares
// the prewarm with other lanes and runs of its stream through
// RunOpts.Prewarm (see PrewarmCache).
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
// Records below every live cursor are discarded at fill time. The
// master is chosen after prewarm (see start).
type bstream struct {
	gen   workload.Source
	trace *workload.Trace // a trace-backed stream's one opened recording
	limit uint64          // absolute stream position where the source ends
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

// start makes the first live lane's source the ring's master and
// points the ring and every cursor at its position. Every lane of the
// stream prewarmed its own source over the same window, so all of
// them stand where the timed stream begins, exactly as a lone lane's
// core picks up its already-advanced source. The live lanes drop
// their own sources for the master's.
func (st *bstream) start() {
	for _, ln := range st.lanes {
		if !ln.settled {
			st.gen = ln.m.gen
			break
		}
	}
	if st.gen == nil {
		return
	}
	pos := st.gen.Emitted()
	st.base, st.next = pos, pos
	for _, ln := range st.lanes {
		ln.rd.pos = pos
		if !ln.settled {
			ln.m.gen = st.gen
		}
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

// lane is one simulation of the batch. Its core reads its stream
// either through a cursor into a shared ring (rd set) or, when no
// other fresh exhaustive lane shares its stream, straight from the
// lane's own source, exactly as an unbatched run would.
type lane struct {
	cfg     Config // resolved
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

	streams []*bstream
	lanes   []lane
	active  []*lane
	warmed  bool
	closed  bool
}

// NewBatch assembles a batch of simulations over cfgs. Each lane's
// source, hierarchy and core are built exactly as a single run's are,
// with mem.NewSystem and cpu.New; what lanes share is a stream ring
// and RunOpts.Prewarm, which a batch of two or more lanes without one
// gets a PrewarmCache of its own for. Per-lane configuration errors —
// and, for a batch of one, an unusable RunOpts.Resume snapshot —
// settle that lane and leave the rest of the batch to run. A global
// error is returned only for snapshot options on a batch of two or
// more (snapshots are one run's state) or a fault-injection failure at
// fault.SiteSimRun.
func NewBatch(ctx context.Context, cfgs []Config, opts RunOpts) (*Batch, error) {
	if len(cfgs) > 1 && (opts.Resume != "" || opts.SnapshotPath != "" || opts.SnapshotOnAbort != "") {
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

	if opts.Prewarm == nil && len(cfgs) > 1 {
		opts.Prewarm = NewPrewarmCache()
	}
	b := &Batch{cancel: cancel, watcherDone: make(chan struct{})}
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
	// on a shared stream reads it through its own ring cursor and
	// keeps a source of its own for its prewarm; the lanes of a
	// trace-backed stream replay its one opened recording.
	byKey := make(map[streamKey]*bstream)
	for i := range b.lanes {
		ln := &b.lanes[i]
		if ln.settled {
			continue
		}
		var src workload.Source // nil: construct builds the lane's source
		var rd isa.Reader       // nil: the core reads the lane's source
		var tr *tapeReader
		if key := streamKeyOf(ln.cfg); ln.cfg.Sample == nil && opts.Resume == "" && readers[key] > 1 {
			st, ok := byKey[key]
			if !ok {
				st = &bstream{limit: ^uint64(0), buf: make([]isa.Inst, ringInit), mask: ringInit - 1}
				if ln.cfg.Trace != nil {
					tr, err := ln.cfg.Trace.open()
					if err != nil {
						ln.fail(err)
						continue
					}
					st.trace, st.limit = tr, tr.Count()
				}
				byKey[key] = st
				b.streams = append(b.streams, st)
			}
			if st.trace != nil {
				src = st.trace.NewReader()
			}
			ln.rd = &laneReader{st: st}
			st.lanes = append(st.lanes, ln)
			rd = ln.rd
		} else if tapeEligible(ln.cfg, opts) {
			tr = new(tapeReader)
			rd = tr
		}
		src, sys, core, err := ln.cfg.construct(src, rd)
		if err != nil {
			ln.fail(err)
			continue
		}
		// Each lane owns its stop flag so one lane's invariant
		// violation or cycle budget halts only that lane.
		m := assembleMachine(ctx, ln.cfg, opts, new(atomic.Bool), src, sys, core)
		m.done = rctx.Done()
		if tr != nil {
			tr.src, m.tape = src, tr
		}
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
		for i := range b.lanes {
			if m := b.lanes[i].m; m != nil {
				m.stop.Store(true)
			}
		}
	}()
	return b, nil
}

// tapeEligible reports whether a lane that reads its own source may
// read its timed window from a PrewarmCache stream tape. A tape-fed
// lane's source stays at the end of the prefix until the core reads
// past the tape, as a cold run's does only right after prewarm, so
// every run that reads its source mid-window is excluded: sampled runs
// fast-forward it between windows, a resumed run starts mid-stream,
// and snapshots export it. Tapes live in RunOpts.Prewarm and are
// recorded after a fast-forward prewarm.
func tapeEligible(cfg Config, opts RunOpts) bool {
	return opts.Prewarm != nil && cfg.PrewarmMode == PrewarmFastForward && cfg.Sample == nil &&
		opts.Resume == "" && opts.SnapshotPath == "" && opts.SnapshotOnAbort == ""
}

// prewarm brings every fresh lane to the start of its first timed
// phase through its machine's own prewarm, in StreamGroups order so
// that the lanes of one stream and cache geometry prewarm back to back
// and find each other's work in the prewarm cache, then starts each
// shared ring where its lanes' sources stand.
func (b *Batch) prewarm() {
	cfgs := make([]Config, len(b.lanes))
	for i := range b.lanes {
		cfgs[i] = b.lanes[i].cfg
	}
	for _, g := range StreamGroups(cfgs) {
		for _, i := range g {
			ln := &b.lanes[i]
			if ln.settled || ln.m.phase != "" {
				continue
			}
			if err := ln.m.prewarm(); err != nil {
				ln.fail(err)
			}
		}
	}
	for _, st := range b.streams {
		st.start()
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
