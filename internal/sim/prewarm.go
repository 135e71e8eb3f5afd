package sim

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"hbcache/internal/workload"
)

// prewarmCacheEntries is PrewarmCache's fixed capacity. A figure pass
// dispatches its jobs grouped by stream, so the prefix in use and the
// one just finished are all a run can profitably share.
const prewarmCacheEntries = 2

// maxPrefixBytes caps one cached prefix's encoding. A prewarm window
// whose references outgrow it (roughly ten million instructions) is
// drained cold on every run instead of being cached, which bounds the
// cache at prewarmCacheEntries × maxPrefixBytes.
const maxPrefixBytes = 16 << 20

// PrewarmCache shares functional prewarm prefixes between runs of the
// same synthetic stream. Every run of a (benchmark, seed) pair drains
// the identical first PrewarmInsts instructions during fast-forward
// prewarm. The cache keeps that prefix's memory-reference
// addresses and branch outcomes (delta-varint encoded, about 1.5 bytes
// per instruction) and the generator state after it, so a later run
// replays the references into its own hierarchy and predictor and
// imports the generator state instead of regenerating the prefix.
// Replay touches the same lines and trains the same branches in the
// same order, so a hit is bit-identical to a cold drain, stream hash
// included.
//
// Runs share one cache through RunOpts.Prewarm; it is safe for
// concurrent use. A run that finds the prefix it needs being filled by
// another run waits for that fill rather than draining a second copy.
// Trace-backed configs, timing-mode prewarm, the sampled mode's
// in-window fast-forwards, and resumed runs never consult it.
type PrewarmCache struct {
	mu      sync.Mutex
	entries [prewarmCacheEntries]*prefix // most recently used first

	hits, misses atomic.Int64
}

// NewPrewarmCache returns an empty cache.
func NewPrewarmCache() *PrewarmCache { return &PrewarmCache{} }

// Stats reports how many runs replayed a cached prefix (hits) and how
// many drained their prefix from the generator (misses). A nil cache
// reports zeros.
func (c *PrewarmCache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// prefixKey names one prewarm prefix: the stream and its length.
type prefixKey struct {
	benchmark string
	seed      uint64
	insts     uint64
}

// prefix is one cached (or in-flight) prewarm prefix. The filling run
// sets the payload and ok, then closes ready; afterwards it is
// immutable and shared by every replaying run.
type prefix struct {
	key   prefixKey
	ready chan struct{}

	ok       bool
	addrs    varintLog // memory references
	branches varintLog // branch outcomes, packed pc<<1|taken
	gen      workload.GeneratorState
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

// logReader decodes a varintLog from the start.
type logReader struct {
	rest [][]byte
	cur  []byte
	v    uint64
}

func (r *logReader) next() (uint64, bool) {
	for len(r.cur) == 0 {
		if len(r.rest) == 0 {
			return 0, false
		}
		r.cur, r.rest = r.rest[0], r.rest[1:]
	}
	d, n := binary.Varint(r.cur)
	r.cur = r.cur[n:]
	r.v += uint64(d)
	return r.v, true
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

// warm runs the machine's functional prewarm through the cache: a miss
// drains the generator exactly as fastForward does while recording the
// prefix, a hit replays it.
func (c *PrewarmCache) warm(m *machine) (err error) {
	key := prefixKey{m.cfg.Benchmark, m.cfg.Seed, m.cfg.PrewarmInsts}
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
			}
			c.publish(p, drained)
		}()
		err = m.fastForward(key.insts, rec)
		drained = err == nil
		return err
	}
	select {
	case <-p.ready:
	case <-m.done:
		return m.abortErr()
	}
	if !p.ok {
		c.misses.Add(1)
		return m.fastForward(key.insts, nil)
	}
	c.hits.Add(1)
	return m.replay(p)
}

// replay applies a cached prefix to a fresh machine: every reference
// into the hierarchy and every outcome into the predictor, in drain
// order, then the generator state after the prefix. It polls the stop
// flag once per runChunk entries, as the cold drain does per chunk.
func (m *machine) replay(p *prefix) error {
	addrs := logReader{rest: p.addrs.chunks}
	for i := 0; ; i++ {
		a, ok := addrs.next()
		if !ok {
			break
		}
		if i%runChunk == 0 && m.stop.Load() {
			return m.abortErr()
		}
		m.sys.WarmTouch(a)
	}
	pred := m.core.Predictor()
	branches := logReader{rest: p.branches.chunks}
	for i := 0; ; i++ {
		b, ok := branches.next()
		if !ok {
			break
		}
		if i%runChunk == 0 && m.stop.Load() {
			return m.abortErr()
		}
		pred.Warm(b>>1, b&1 == 1)
	}
	if err := m.gen.ImportState(p.gen); err != nil {
		return fmt.Errorf("sim: cached prewarm prefix: %w", err)
	}
	return nil
}
