package sim

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"hbcache/internal/cpu"
	"hbcache/internal/mem"
	"hbcache/internal/workload"
)

// prewarmCacheEntries is PrewarmCache's fixed capacity. A figure pass
// dispatches its jobs grouped by stream, so the prefix in use and the
// one just finished are all a run can profitably share.
const prewarmCacheEntries = 2

// maxPrefixBytes caps one cached prefix's encoding. A prewarm window
// whose references outgrow it (roughly ten million instructions) is
// drained cold on every run instead of being cached. A prefix's stream
// tape counts toward the same cap: a tape that would take the entry
// past it is not kept. So the cache holds at most prewarmCacheEntries
// × maxPrefixBytes.
const maxPrefixBytes = 16 << 20

// PrewarmCache shares the functional prewarm between runs of the same
// stream, at two depths.
//
// Every run of a (benchmark, seed) pair, or of one recorded trace,
// drains the identical first PrewarmInsts instructions during
// fast-forward prewarm. The cache keeps that prefix's memory-reference
// addresses and branch outcomes (delta-varint encoded, about 1.5 bytes
// per instruction) and the source state after it, in a two-entry LRU,
// so a later run of the stream replays the references into its own
// hierarchy and predictor and imports the source state instead of
// regenerating (or re-decoding and re-touching) the prefix.
//
// What the region sweep and the prefix's references leave in the
// hierarchy depends only on the stream and the cache geometry
// (mem.WarmStateKey), not on ports, hit latencies or the line buffer.
// So the cache also keeps one finished prewarm: after the first run
// of a (prefix, geometry) pair has swept and drained (or replayed), it
// captures that hierarchy's warm state into a single slot whose
// buffers every later capture reuses. A later run of the same pair
// applies the captured state instead of sweeping and replaying the
// references, then trains its own predictor and imports the source
// state. The slot holds one pair at a time: StreamGroups orders each
// stream's configs by geometry so that a scheduler dispatching in its
// order refills it once per pair. The predictor is kept with the
// prefix: the run that drains it captures its trained predictor, and
// a later run whose predictor has that geometry (table size, gshare
// history) copies it instead of replaying the branch outcomes.
//
// Past the prefix, the cache keeps a stream tape of the timed window
// (see tape.go): the first run that hits a cached prefix records the
// warmup and measure windows that follow it, plus slack, and every
// later lone run of the stream replays the tape instead of generating
// its timed stream (see feedTape).
//
// Replay touches the same lines and trains the same branches in the
// same order as a cold drain, an applied state is a copy of one, and a
// tape holds the very records the source would produce, so every path
// is bit-identical to a cold run, stream hash included.
//
// Runs share one cache through RunOpts.Prewarm, and so do the lanes
// of a batch, a shared ring's included; it is safe for concurrent
// use. A run that finds the prefix or the warm state it needs being
// filled by another run waits for that fill (or for its own
// cancellation) rather than producing a second copy; a fill that fails
// or panics releases its waiters without publishing anything.
// Timing-mode prewarm, the sampled mode's in-window fast-forwards, and
// resumed runs never consult it.
type PrewarmCache struct {
	mu      sync.Mutex
	entries [prewarmCacheEntries]*prefix // most recently used first
	slot    warmSlot

	hits, misses, warmFills, warmApplies atomic.Int64
	tapeFills, tapeReads                 atomic.Int64
}

// NewPrewarmCache returns an empty cache.
func NewPrewarmCache() *PrewarmCache { return &PrewarmCache{} }

// PrewarmStats counts how runs used a PrewarmCache. Hits are runs that
// used a cached prefix (replayed it, or applied a warm state paired
// with it) and Misses runs that drained their prefix from the
// source; every run through the cache is exactly one of the two.
// WarmFills counts captured warm states and WarmApplies the runs that
// applied one. TapeFills counts recorded stream tapes and TapeReads the
// runs fed from one, the recording runs included.
type PrewarmStats struct {
	Hits, Misses, WarmFills, WarmApplies int64
	TapeFills, TapeReads                 int64
}

// Stats reports the cache's counters. A nil cache reports zeros.
func (c *PrewarmCache) Stats() PrewarmStats {
	if c == nil {
		return PrewarmStats{}
	}
	return PrewarmStats{
		Hits: c.hits.Load(), Misses: c.misses.Load(),
		WarmFills: c.warmFills.Load(), WarmApplies: c.warmApplies.Load(),
		TapeFills: c.tapeFills.Load(), TapeReads: c.tapeReads.Load(),
	}
}

// prefixKey names one prewarm prefix: the stream — a trace-backed
// run's recording by its content digest — and its length.
type prefixKey struct {
	benchmark string
	seed      uint64
	trace     string
	insts     uint64
}

// prefixKeyOf is the prefix a fresh machine's prewarm drains.
func prefixKeyOf(m *machine) prefixKey {
	key := prefixKey{benchmark: m.cfg.Benchmark, seed: m.cfg.Seed, insts: m.cfg.PrewarmInsts}
	if tr, ok := m.gen.(*workload.TraceReader); ok {
		key.trace = tr.Digest()
	}
	return key
}

// prefix is one cached (or in-flight) prewarm prefix. The filling run
// sets the payload and ok, then closes ready; afterwards the payload is
// immutable and shared by every replaying run.
type prefix struct {
	key   prefixKey
	ready chan struct{}

	ok       bool
	addrs    varintLog               // memory references
	branches varintLog               // branch outcomes, packed pc<<1|taken
	gen      workload.GeneratorState // the source's state after the prefix
	pred     cpu.WarmPredictor       // the filling run's predictor after it

	// The stream tape after the prefix, guarded by the cache's mu: nil
	// until recorded, taping once a run has claimed the recording.
	tape   *tape
	taping bool
}

// warmKey names one finished prewarm: its prefix and the hierarchy
// geometry it warmed (mem.WarmStateKey).
type warmKey struct {
	prefix prefixKey
	mem    string
}

// warmSlot is the cache's one finished prewarm. Its control fields are
// guarded by the cache's mu. The payload (state, prefix) is written
// only by the filling run and read only by runs holding a reader
// reference after ready closed with ok set; a new fill may not start
// while either is in progress.
type warmSlot struct {
	key     warmKey
	ready   chan struct{} // closes when the current fill settles
	filling bool
	ok      bool // the payload holds key's warm state
	readers int  // runs waiting on or applying the payload

	state  mem.WarmState
	prefix *prefix // supplies the branch outcomes and source state
}

// logChunk is the size of one varintLog chunk: large enough that a
// prefix is a few dozen allocations, small enough that the unused tail
// of the last chunk is negligible next to the prefix.
const logChunk = 16 << 10

// varintLog is an append-only sequence of uint64s stored as
// zigzag-varint deltas in fixed-size chunks, so recording never
// copies what it has already written.
type varintLog struct {
	chunks [][]byte
	last   uint64
	size   int // encoded bytes
}

func (l *varintLog) add(v uint64) {
	n := len(l.chunks)
	if n == 0 || cap(l.chunks[n-1])-len(l.chunks[n-1]) < binary.MaxVarintLen64 {
		l.chunks = append(l.chunks, make([]byte, 0, logChunk))
		n++
	}
	before := len(l.chunks[n-1])
	l.chunks[n-1] = binary.AppendVarint(l.chunks[n-1], int64(v-l.last))
	l.size += len(l.chunks[n-1]) - before
	l.last = v
}

// logReader decodes a varintLog from the start, runChunk values at a
// time: one tight loop per chunk keeps the replays, which decode every
// entry of a prefix once per run, off a call per entry.
type logReader struct {
	rest [][]byte
	cur  []byte
	v    uint64
	buf  [runChunk]uint64
}

// chunk decodes the next runChunk values, fewer at the end of the log
// and none past it. The slice is valid until the next call.
func (r *logReader) chunk() []uint64 {
	cur, v, n := r.cur, r.v, 0
	for n < len(r.buf) {
		if len(cur) == 0 {
			if len(r.rest) == 0 {
				break
			}
			cur, r.rest = r.rest[0], r.rest[1:]
			continue
		}
		// binary.Varint, inlined: the log was written by add, so no
		// overflow or truncation checks are needed.
		var x uint64
		for shift := uint(0); ; shift += 7 {
			b := cur[0]
			cur = cur[1:]
			x |= uint64(b&0x7f) << shift
			if b < 0x80 {
				break
			}
		}
		v += uint64(int64(x>>1) ^ -int64(x&1))
		r.buf[n] = v
		n++
	}
	r.cur, r.v = cur, v
	return r.buf[:n]
}

// acquire finds key's prefix, moving it to the front, or inserts an
// empty one for the caller to fill (evicting the least recently used).
func (c *PrewarmCache) acquire(key prefixKey) (p *prefix, fill bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.entries {
		if e != nil && e.key == key {
			copy(c.entries[1:i+1], c.entries[:i])
			c.entries[0] = e
			return e, false
		}
	}
	p = &prefix{key: key, ready: make(chan struct{})}
	copy(c.entries[1:], c.entries[:])
	c.entries[0] = p
	return p, true
}

// publish releases p's waiters. A failed fill is dropped from the
// cache so the next run of its stream fills it afresh; an oversized
// one stays, unfilled, so later runs drain cold without re-recording.
func (c *PrewarmCache) publish(p *prefix, keep bool) {
	close(p.ready)
	if keep {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.entries {
		if e == p {
			copy(c.entries[i:], c.entries[i+1:])
			c.entries[len(c.entries)-1] = nil
		}
	}
}

// prefixRecorder accumulates a draining prefix's encoding.
type prefixRecorder struct {
	addrs, branches varintLog
	full            bool // outgrew maxPrefixBytes; nothing is kept
}

func (r *prefixRecorder) add(addrs, branches []uint64) {
	if r.full {
		return
	}
	for _, a := range addrs {
		r.addrs.add(a)
	}
	for _, b := range branches {
		r.branches.add(b)
	}
	if r.addrs.size+r.branches.size > maxPrefixBytes {
		r.full, r.addrs, r.branches = true, varintLog{}, varintLog{}
	}
}

// acquireWarm claims the warm slot for key. A run of the key already
// filled or being filled becomes a reader and gets the slot's ready
// channel; otherwise an idle slot is handed to the caller to fill
// (fill true). When the slot is busy with another key the run cannot
// use it and gets a nil channel.
func (c *PrewarmCache) acquireWarm(key warmKey) (ready <-chan struct{}, fill bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &c.slot
	if s.ready != nil && s.key == key && (s.filling || s.ok) {
		s.readers++
		return s.ready, false
	}
	if s.filling || s.readers > 0 {
		return nil, false
	}
	s.key, s.ready, s.filling, s.ok, s.prefix = key, make(chan struct{}), true, false, nil
	return s.ready, true
}

// publishWarm ends the slot's fill, releasing its waiters. A failed
// fill publishes nothing: its waiters prewarm the long way and the
// next run of its key fills the slot afresh.
func (c *PrewarmCache) publishWarm(ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slot.filling, c.slot.ok = false, ok
	if ok {
		c.warmFills.Add(1)
	}
	close(c.slot.ready)
}

// releaseWarm drops a reader reference taken by acquireWarm.
func (c *PrewarmCache) releaseWarm() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slot.readers--
}

// warm runs the machine's functional prewarm — region sweep, then the
// prewarm prefix — through the cache, and points a tape-eligible
// machine that used a cached prefix at that prefix's stream tape.
func (c *PrewarmCache) warm(m *machine) error {
	p, hit, err := c.prewarm(m)
	if err == nil && hit && m.tape != nil {
		err = c.feedTape(m, p)
	}
	return err
}

// prewarm is warm's prewarm. A run whose (prefix, geometry) is in the
// warm slot applies it; any other run sweeps and then drains
// (recording the prefix) or replays its prefix, and a run that claimed
// the idle slot captures the result into it. It returns the cached
// prefix the run ended with, if any, and whether the run used it
// rather than draining it.
func (c *PrewarmCache) prewarm(m *machine) (p *prefix, hit bool, err error) {
	key := prefixKeyOf(m)
	ready, fill := c.acquireWarm(warmKey{key, mem.WarmStateKey(m.cfg.Memory)})
	if ready != nil && !fill {
		p, err := c.applyWarm(m, ready)
		if p != nil || err != nil {
			return p, p != nil, err
		}
		// The fill failed; prewarm this run the long way.
	}
	if !fill {
		return c.sweepAndDrain(m, key)
	}
	captured := false
	// Deferred so a panicking fill still releases the waiters.
	defer func() { c.publishWarm(captured) }()
	p, hit, err = c.sweepAndDrain(m, key)
	if p != nil {
		m.sys.CaptureWarm(&c.slot.state)
		c.slot.prefix, captured = p, true
	}
	return p, hit, err
}

// applyWarm waits for the warm slot's fill, as a reader, and applies
// it: the captured hierarchy state, the trained predictor, and the
// source state after the prefix. It returns the slot's prefix, or nil
// with a nil error when the fill failed.
func (c *PrewarmCache) applyWarm(m *machine, ready <-chan struct{}) (*prefix, error) {
	defer c.releaseWarm()
	select {
	case <-ready:
	case <-m.done:
		return nil, m.abortErr()
	}
	s := &c.slot
	if !s.ok {
		return nil, nil
	}
	if err := m.sys.ApplyWarm(&s.state); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	if err := m.replayBranches(s.prefix); err != nil {
		return nil, err
	}
	c.hits.Add(1)
	c.warmApplies.Add(1)
	return s.prefix, nil
}

// sweepAndDrain sweeps the machine's regions and then drains its
// prewarm prefix exactly as fastForward does while recording it, or
// replays the cached prefix. It returns the prefix when one is cached
// after a successful run, nil when it failed or the prefix is too large
// to keep, and whether the run replayed it.
func (c *PrewarmCache) sweepAndDrain(m *machine, key prefixKey) (_ *prefix, hit bool, err error) {
	if err := m.sweep(); err != nil {
		return nil, false, err
	}
	p, fill := c.acquire(key)
	if fill {
		c.misses.Add(1)
		rec := new(prefixRecorder)
		drained := false
		// Deferred so a panicking drain still releases the waiters.
		defer func() {
			if drained && !rec.full {
				p.addrs, p.branches = rec.addrs, rec.branches
				p.gen, p.ok = m.gen.ExportState(), true
				m.core.Predictor().CaptureWarm(&p.pred)
			}
			c.publish(p, drained)
		}()
		err = m.fastForward(key.insts, rec)
		drained = err == nil
		if !drained || rec.full {
			return nil, false, err
		}
		return p, false, nil
	}
	select {
	case <-p.ready:
	case <-m.done:
		return nil, false, m.abortErr()
	}
	if !p.ok {
		c.misses.Add(1)
		return nil, false, m.fastForward(key.insts, nil)
	}
	c.hits.Add(1)
	if err := m.replay(p); err != nil {
		return nil, false, err
	}
	return p, true, nil
}

// feedTape points a tape-eligible machine that used cached prefix p at
// p's stream tape. The first such run finds no tape and claims it: it
// records warmup + measure + tapeSlack instructions from its own
// source and rewinds the source to p's end state, so its machine state
// stays a cold run's, then reads the tape like any later run. A run
// that finds the tape being recorded reads its own source and never
// waits. A tape that would take the entry past maxPrefixBytes is not
// kept, and its stream is not recorded again.
func (c *PrewarmCache) feedTape(m *machine, p *prefix) error {
	c.mu.Lock()
	t, record := p.tape, p.tape == nil && !p.taping
	p.taping = true
	c.mu.Unlock()
	if record {
		recorded := false
		// Deferred so a panicking recording releases its claim.
		defer func() {
			c.mu.Lock()
			p.tape, p.taping = t, recorded
			c.mu.Unlock()
		}()
		n := m.cfg.WarmupInsts + m.cfg.MeasureInsts + tapeSlack
		budget := maxPrefixBytes - p.addrs.size - p.branches.size
		rec, stopped, err := recordTape(m.gen, p.gen, n, budget, m.stop)
		if stopped {
			return m.abortErr()
		}
		if err != nil {
			return fmt.Errorf("sim: stream tape: %w", err)
		}
		t, recorded = rec, true
		if t != nil {
			c.tapeFills.Add(1)
		}
	}
	if t != nil {
		m.tape.attach(t)
		c.tapeReads.Add(1)
	}
	return nil
}

// replay applies a cached prefix to a fresh machine: every reference
// into the hierarchy and every outcome into the predictor, in drain
// order, then the source state after the prefix. It polls the stop
// flag once per runChunk entries, as the cold drain does per chunk.
func (m *machine) replay(p *prefix) error {
	addrs := logReader{rest: p.addrs.chunks}
	for as := addrs.chunk(); len(as) > 0; as = addrs.chunk() {
		if m.stop.Load() {
			return m.abortErr()
		}
		for _, a := range as {
			m.sys.WarmTouch(a)
		}
	}
	return m.replayBranches(p)
}

// replayBranches is replay without the references: the predictor the
// prefix trained — copied when the machine's has the captured one's
// geometry, otherwise by replaying the branch outcomes — then the
// prefix's source state.
func (m *machine) replayBranches(p *prefix) error {
	pred := m.core.Predictor()
	branches := logReader{rest: p.branches.chunks}
	if pred.ApplyWarm(&p.pred) {
		branches.rest = nil
	}
	for bs := branches.chunk(); len(bs) > 0; bs = branches.chunk() {
		if m.stop.Load() {
			return m.abortErr()
		}
		for _, b := range bs {
			pred.Warm(b>>1, b&1 == 1)
		}
	}
	if err := m.gen.ImportState(p.gen); err != nil {
		return fmt.Errorf("sim: cached prewarm prefix: %w", err)
	}
	return nil
}
