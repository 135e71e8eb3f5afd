// Package cpu is the cycle-level model of the paper's four-issue
// dynamic superscalar processor: R10000 instruction latencies, a
// 64-entry instruction window, a 32-entry load/store buffer, hardware
// branch prediction, out-of-order issue with no restriction on the mix
// of instructions issued per cycle, and a non-blocking interface to the
// data memory hierarchy. The instruction cache is perfect (single
// cycle), as in the paper.
//
// The model is trace driven: it consumes isa.Inst records and charges
// time, enforcing register dataflow, structural limits (window, LSQ,
// cache ports, MSHRs), memory ordering (store-to-load forwarding with
// perfect disambiguation), and control dependences (dispatch stops at a
// mispredicted branch until it resolves).
package cpu

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"hbcache/internal/isa"
	"hbcache/internal/mem"
)

// DataMemory is the load/store interface the core drives; *mem.L1Cache
// implements it.
type DataMemory interface {
	TryLoad(now mem.Cycle, addr uint64) (mem.LoadResult, bool)
	EnqueueStore(addr uint64) bool
	DrainStores(now mem.Cycle)
	// StoreBufferProbe reports whether a retired-but-undrained store to
	// the same 8-byte block is sitting in the store buffer, in which
	// case a load forwards from it in a single cycle.
	StoreBufferProbe(addr uint64) bool
}

// Checker observes the core's architectural events for validation.
// Install one with SetChecker; the default nil checker costs a single
// predictable branch per event site and zero allocations, so the hot
// loop is unaffected when checking is off. Implementations live in
// internal/check — the core knows only this interface, which keeps the
// dependency pointing outward.
type Checker interface {
	// Retire is called once per retired instruction, in retirement
	// order, with the entry's window sequence number.
	Retire(now mem.Cycle, inst isa.Inst, seq uint64)
	// Forward is called when a load is satisfied by store-to-load
	// forwarding. storeSeq and storeAddr identify the forwarding store;
	// storeSeq == 0 means the match came from the L1 store buffer
	// (already retired, necessarily older than any window load).
	Forward(now mem.Cycle, loadSeq, loadAddr, storeSeq, storeAddr uint64)
	// EndCycle is called at the end of every Step, after all pipeline
	// stages have run.
	EndCycle(now mem.Cycle)
}

// Config parameterizes the core. The zero value is invalid; use
// DefaultConfig.
type Config struct {
	FetchWidth  int `json:"fetch_width"`  // instructions dispatched per cycle (paper: 4)
	IssueWidth  int `json:"issue_width"`  // instructions issued per cycle (paper: 4, any mix)
	RetireWidth int `json:"retire_width"` // instructions retired per cycle
	WindowSize  int `json:"window_size"`  // reorder buffer / instruction window (paper: 64)
	LSQSize     int `json:"lsq_size"`     // load/store buffer entries (paper: 32)
	// PredictorEntries sizes the two-bit branch history table.
	PredictorEntries int `json:"predictor_entries"`
	// Gshare switches the predictor to gshare indexing with
	// GshareHistoryBits of global history (an ablation; the paper's
	// machine is a plain two-bit table).
	Gshare            bool `json:"gshare,omitempty"`
	GshareHistoryBits int  `json:"gshare_history_bits,omitempty"`
	// FULimits optionally restricts how many instructions of each class
	// may issue per cycle. Nil reproduces the paper's processor, which
	// places no restriction on the mix of instructions issued.
	FULimits *FULimits `json:"fu_limits,omitempty"`
	// MispredictPenalty is the front-end refill time in cycles after a
	// mispredicted branch resolves.
	MispredictPenalty int `json:"mispredict_penalty"`
}

// DefaultConfig returns the paper's processor.
func DefaultConfig() Config {
	return Config{
		FetchWidth:        4,
		IssueWidth:        4,
		RetireWidth:       4,
		WindowSize:        64,
		LSQSize:           32,
		PredictorEntries:  DefaultPredictorEntries,
		MispredictPenalty: 3,
	}
}

func (c Config) validate() error {
	switch {
	case c.FetchWidth <= 0, c.IssueWidth <= 0, c.RetireWidth <= 0:
		return fmt.Errorf("cpu: widths must be positive: %+v", c)
	case c.WindowSize <= 0:
		return fmt.Errorf("cpu: window size must be positive")
	case c.LSQSize <= 0:
		return fmt.Errorf("cpu: LSQ size must be positive")
	case c.MispredictPenalty < 0:
		return fmt.Errorf("cpu: mispredict penalty must be non-negative")
	}
	return nil
}

// entry states. They live in CPU.state, a slice parallel to the window,
// so the per-cycle scans walk a dense byte array instead of pulling
// whole entries through the cache.
const (
	stWaiting   uint8 = iota // in window, operands possibly outstanding
	stExecuting              // issued, completes at doneAt
	stWantPort               // load: address computed, waiting for a cache port
	stDone                   // result available (from doneAt)
)

// wheelSpan is the completion timing wheel's size in cycles (a power of
// two). It only bounds efficiency, not correctness: latencies beyond it
// wrap and are re-examined every wheelSpan cycles until due.
const wheelSpan = 256

type entry struct {
	inst isa.Inst
	seq  uint64

	srcSeq1, srcSeq2 uint64    // producing instruction seq, 0 = ready
	doneAt           mem.Cycle // valid in stExecuting/stDone
	addrReadyAt      mem.Cycle // loads: when address calculation finishes

	mispredicted bool
	issueAt      mem.Cycle // cycle the entry issued, for latency stats
}

// Stats are the core's cumulative counters.
type Stats struct {
	Cycles   uint64 `json:"cycles"`
	Retired  uint64 `json:"retired"`
	Loads    uint64 `json:"loads"`
	Stores   uint64 `json:"stores"`
	Branches uint64 `json:"branches"`

	Mispredicts     uint64    `json:"mispredicts"`
	LoadLatencySum  uint64    `json:"load_latency_sum"` // issue-to-done, summed over loads
	LoadForwarded   uint64    `json:"load_forwarded"`   // loads satisfied by store-to-load forwarding
	WindowFull      uint64    `json:"window_full"`      // dispatch stalls: window
	LSQFull         uint64    `json:"lsq_full"`         // dispatch stalls: load/store buffer
	StoreBufStalls  uint64    `json:"store_buf_stalls"` // retire stalls: L1 store buffer full
	FetchBlocked    uint64    `json:"fetch_blocked"`    // dispatch stalls: unresolved mispredict
	IssuedHistogram [8]uint64 `json:"issued_histogram"`

	// WindowOccupancySum and LSQOccupancySum accumulate per-cycle
	// occupancies for mean-utilization reporting.
	WindowOccupancySum uint64 `json:"window_occupancy_sum"`
	LSQOccupancySum    uint64 `json:"lsq_occupancy_sum"`
}

// MeanWindowOccupancy returns the average number of live window entries
// per cycle.
func (s Stats) MeanWindowOccupancy() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.WindowOccupancySum) / float64(s.Cycles)
}

// MeanLSQOccupancy returns the average number of live load/store buffer
// entries per cycle.
func (s Stats) MeanLSQOccupancy() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.LSQOccupancySum) / float64(s.Cycles)
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// MeanLoadLatency returns the average issue-to-completion latency of
// loads in cycles.
func (s Stats) MeanLoadLatency() float64 {
	if s.Loads == 0 {
		return 0
	}
	return float64(s.LoadLatencySum) / float64(s.Loads)
}

// seqRing is a fixed-capacity FIFO of window sequence numbers, used to
// track the stores resident in the window so store-to-load forwarding
// visits only them instead of scanning the whole window.
type seqRing struct {
	buf  []uint64
	head int
	n    int
}

func (r *seqRing) push(seq uint64) {
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = seq
	r.n++
}

func (r *seqRing) pop() {
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
}

func (r *seqRing) at(i int) uint64 {
	i += r.head
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return r.buf[i]
}

// CPU is one simulated core bound to a trace and a data memory.
type CPU struct {
	cfg    Config
	reader isa.Reader
	dmem   DataMemory
	l1     *mem.L1Cache // dmem when it is the concrete L1, for devirtualized calls
	pred   *Predictor

	now mem.Cycle

	rob     []entry
	state   []uint8 // parallel to rob
	head    int     // index of oldest entry
	count   int     // live entries
	headSeq uint64
	nextSeq uint64

	lsqCount int

	// Wakeup scheduling state. The per-cycle stages never scan the
	// window; instead they walk bitsets (one bit per window slot) and a
	// completion timing wheel that the state transitions maintain:
	//  - readyMask marks waiting entries whose operands are all
	//    available. It is seeded at dispatch (when the operands are
	//    already complete) and extended by completing producers through
	//    the wake masks, so issue() visits only issuable entries;
	//  - portMask marks loads waiting for a cache port;
	//  - wake holds, per producer slot, the bitset of consumer slots
	//    blocked on it (maskWords words each); nready counts a waiting
	//    entry's outstanding operands;
	//  - wheelHead/wheelNext bucket executing entries by completion
	//    cycle modulo wheelSpan (an intrusive list threaded through the
	//    slots), so complete() pops exactly the entries due now; an
	//    entry further than wheelSpan out is simply re-examined a lap
	//    later;
	//  - storeSeqs lists the window's stores in program order for
	//    store-to-load forwarding.
	maskWords  int
	readyMask  []uint64
	portMask   []uint64
	wake       []uint64
	nready     []uint8
	scratch    []int32 // buffer for program-order bitset walks and due lists
	readyCount int
	portCount  int
	wheelHead  []int32
	wheelNext  []int32
	storeSeqs  seqRing
	// storeBlkCnt counts window-resident stores by hashed 8-byte block,
	// so forwardingState can skip the store walk when no store can
	// possibly match (the common case). Collisions only cost the walk.
	storeBlkCnt [64]uint8

	regProducer [isa.NumLogicalRegs]uint64 // reg -> producing seq (0 = ready)

	traceDone     bool
	pendingInst   isa.Inst
	pendingValid  bool
	mispredictSeq uint64    // seq of unresolved mispredicted branch, 0 = none
	fetchResumeAt mem.Cycle // dispatch blocked until this cycle

	stats Stats
	// retireStalledStore is set when the head store could not enter the
	// L1 store buffer this cycle.
	retireStalledStore bool

	// Budget state (SetBudget). stop is polled by Run/RunCycles every
	// budgetCheckInterval cycles — never inside Step, so the hot loop
	// stays branch-light and allocation-free. maxCycles caps c.now,
	// which is monotonic across ResetStats, so the cap bounds total
	// simulated work including warmup.
	stop      *atomic.Bool
	maxCycles uint64
	stopped   bool

	// checker, when non-nil, observes retirements, forwarding events,
	// and cycle boundaries (SetChecker). Every call site is guarded by a
	// nil test so the disabled path adds no allocation and essentially
	// no time to the hot loop.
	checker Checker

	// debugForwardYounger deliberately breaks the store-to-load
	// forwarding age filter, letting loads forward from *younger*
	// stores. It exists only so tests can prove the invariant checker
	// catches the violation; see export_test.go.
	debugForwardYounger bool
}

// budgetCheckInterval is how many cycles pass between budget polls in
// Run/RunCycles. At ~10M simulated cycles/s of host throughput this
// bounds overrun after a cancellation to well under a millisecond.
const budgetCheckInterval = 1024

// New builds a core. reader and dmem must be non-nil.
func New(cfg Config, reader isa.Reader, dmem DataMemory) (*CPU, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if reader == nil || dmem == nil {
		return nil, fmt.Errorf("cpu: reader and data memory are required")
	}
	entries := cfg.PredictorEntries
	if entries == 0 {
		entries = DefaultPredictorEntries
	}
	pred := NewPredictor(entries)
	if cfg.Gshare {
		pred = NewGshare(entries, cfg.GshareHistoryBits)
	}
	l1, _ := dmem.(*mem.L1Cache)
	words := (cfg.WindowSize + 63) / 64
	c := &CPU{
		cfg:       cfg,
		reader:    reader,
		dmem:      dmem,
		l1:        l1,
		pred:      pred,
		rob:       make([]entry, cfg.WindowSize),
		state:     make([]uint8, cfg.WindowSize),
		headSeq:   1,
		nextSeq:   1,
		maskWords: words,
		readyMask: make([]uint64, words),
		portMask:  make([]uint64, words),
		wake:      make([]uint64, cfg.WindowSize*words),
		nready:    make([]uint8, cfg.WindowSize),
		scratch:   make([]int32, cfg.WindowSize),
		wheelHead: make([]int32, wheelSpan),
		wheelNext: make([]int32, cfg.WindowSize),
		storeSeqs: seqRing{buf: make([]uint64, cfg.LSQSize)},
	}
	for i := range c.wheelHead {
		c.wheelHead[i] = -1
	}
	return c, nil
}

// pushWheel files an executing slot under its completion cycle.
func (c *CPU) pushWheel(p int, at mem.Cycle) {
	b := int(uint64(at) & (wheelSpan - 1))
	c.wheelNext[p] = c.wheelHead[b]
	c.wheelHead[b] = int32(p)
}

// setBit and clearBit operate on the slot bitsets.
func setBit(m []uint64, i int)   { m[i>>6] |= 1 << uint(i&63) }
func clearBit(m []uint64, i int) { m[i>>6] &^= 1 << uint(i&63) }

// gather collects the slots whose bits are set in mask into out, in
// program order starting at the window head, returning the count. Only
// live slots ever have bits set, so the two passes (head to end of the
// window array, then the wrapped prefix) enumerate exactly the marked
// entries oldest first.
func (c *CPU) gather(mask []uint64, out []int32) int {
	n := 0
	if c.maskWords == 1 {
		hb := uint(c.head & 63)
		m := mask[0]
		for lo := m &^ (1<<hb - 1); lo != 0; lo &= lo - 1 {
			out[n] = int32(bits.TrailingZeros64(lo))
			n++
		}
		for hi := m & (1<<hb - 1); hi != 0; hi &= hi - 1 {
			out[n] = int32(bits.TrailingZeros64(hi))
			n++
		}
		return n
	}
	hw := c.head >> 6
	hb := uint(c.head & 63)
	m := mask[hw] &^ (1<<hb - 1)
	for w := hw; ; {
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			out[n] = int32(w<<6 + b)
			n++
		}
		w++
		if w >= len(mask) {
			break
		}
		m = mask[w]
	}
	for w := 0; w <= hw && w < len(mask); w++ {
		m = mask[w]
		if w == hw {
			m &= 1<<hb - 1
		}
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			out[n] = int32(w<<6 + b)
			n++
		}
	}
	return n
}

// Now returns the current cycle.
func (c *CPU) Now() mem.Cycle { return c.now }

// Stats returns a snapshot of the cumulative counters.
func (c *CPU) Stats() Stats { return c.stats }

// Predictor exposes the branch predictor for reporting.
func (c *CPU) Predictor() *Predictor { return c.pred }

// Done reports whether the trace is exhausted and the window drained.
func (c *CPU) Done() bool { return c.traceDone && c.count == 0 && !c.pendingValid }

// idx maps a live sequence number to its window slot.
func (c *CPU) idx(seq uint64) int {
	i := c.head + int(seq-c.headSeq)
	if i >= len(c.rob) {
		i -= len(c.rob)
	}
	return i
}

// producerReady reports whether the value produced by seq is available
// at the current cycle. Sequence 0 means "always ready"; a producer
// older than the window head has retired and is therefore complete.
// (stDone implies doneAt <= now: complete() only marks entries whose
// results have arrived.)
func (c *CPU) producerReady(seq uint64) bool {
	return seq == 0 || seq < c.headSeq || c.state[c.idx(seq)] == stDone
}

// Run advances the core until maxInsts instructions have retired, the
// trace ends, or the budget installed by SetBudget runs out, returning
// the cumulative stats. A maxInsts of zero runs to trace end (which
// never happens with the unbounded generators).
func (c *CPU) Run(maxInsts uint64) Stats {
	target := c.stats.Retired + maxInsts
	for !c.Done() {
		if maxInsts > 0 && c.stats.Retired >= target {
			break
		}
		if uint64(c.now)&(budgetCheckInterval-1) == 0 && c.budgetExhausted() {
			break
		}
		c.Step()
	}
	return c.stats
}

// RunCycles advances the core by n cycles (or until trace end or budget
// exhaustion).
func (c *CPU) RunCycles(n uint64) Stats {
	for i := uint64(0); i < n && !c.Done(); i++ {
		if uint64(c.now)&(budgetCheckInterval-1) == 0 && c.budgetExhausted() {
			break
		}
		c.Step()
	}
	return c.stats
}

// SetBudget installs a cooperative abort flag and a hard cycle cap,
// both polled every budgetCheckInterval cycles by Run and RunCycles.
// stop may be nil (no flag); maxCycles of zero means uncapped. The cap
// is measured against the core's monotonic cycle clock, so it survives
// ResetStats and bounds total work across warmup and measurement.
func (c *CPU) SetBudget(stop *atomic.Bool, maxCycles uint64) {
	c.stop = stop
	c.maxCycles = maxCycles
}

// Stopped reports whether a Run or RunCycles call returned early
// because the abort flag was raised or the cycle cap was reached.
func (c *CPU) Stopped() bool { return c.stopped }

// budgetExhausted polls the budget, latching Stopped on exhaustion.
func (c *CPU) budgetExhausted() bool {
	if c.maxCycles > 0 && uint64(c.now) >= c.maxCycles {
		c.stopped = true
		return true
	}
	if c.stop != nil && c.stop.Load() {
		c.stopped = true
		return true
	}
	return false
}

// ResetStats zeroes the cumulative counters (for post-warmup windows)
// without disturbing microarchitectural state.
func (c *CPU) ResetStats() { c.stats = Stats{} }

// SetChecker installs (or, with nil, removes) an event checker. The
// core never calls into a nil checker, so the disabled configuration
// keeps the hot loop allocation-free.
func (c *CPU) SetChecker(ck Checker) { c.checker = ck }

// Step simulates one processor cycle.
func (c *CPU) Step() {
	c.now++
	c.stats.Cycles++

	c.complete()
	c.retire()
	issued := c.issue()
	c.memoryAccess()
	c.dispatch()
	if c.l1 != nil {
		c.l1.DrainStores(c.now)
	} else {
		c.dmem.DrainStores(c.now)
	}

	if issued >= len(c.stats.IssuedHistogram) {
		issued = len(c.stats.IssuedHistogram) - 1
	}
	c.stats.IssuedHistogram[issued]++
	c.stats.WindowOccupancySum += uint64(c.count)
	c.stats.LSQOccupancySum += uint64(c.lsqCount)
	if c.checker != nil {
		c.checker.EndCycle(c.now)
	}
}

// Snapshot summarizes the microarchitectural state at the current
// cycle, for pipeline tracing and debugging tools.
type Snapshot struct {
	Cycle           uint64
	WindowOccupancy int
	LSQOccupancy    int
	// Per-state entry counts within the window.
	Waiting, Executing, WantPort, Done int
	// FetchBlocked is true while dispatch waits on an unresolved
	// mispredicted branch or front-end refill.
	FetchBlocked bool
	// HeadOp and HeadAge describe the oldest instruction: its operation
	// and how many cycles it has occupied the window head.
	HeadOp  isa.Op
	HeadAge uint64
}

// Snapshot captures the current pipeline state.
func (c *CPU) Snapshot() Snapshot {
	snap := Snapshot{
		Cycle:           uint64(c.now),
		WindowOccupancy: c.count,
		LSQOccupancy:    c.lsqCount,
		FetchBlocked:    c.mispredictSeq != 0 || c.now < c.fetchResumeAt,
	}
	pos := c.head
	for i := 0; i < c.count; i++ {
		st := c.state[pos]
		if pos++; pos == len(c.rob) {
			pos = 0
		}
		switch st {
		case stWaiting:
			snap.Waiting++
		case stExecuting:
			snap.Executing++
		case stWantPort:
			snap.WantPort++
		case stDone:
			snap.Done++
		}
	}
	if c.count > 0 {
		head := &c.rob[c.head]
		snap.HeadOp = head.inst.Op
		if uint64(c.now) > uint64(head.issueAt) {
			snap.HeadAge = uint64(c.now - head.issueAt)
		}
	}
	return snap
}

// complete transitions executing entries whose results arrive this
// cycle, waking their dependents and resolving mispredicted branches.
// The timing wheel hands over exactly the entries filed under this
// cycle: an empty bucket (the common case) costs one load. Entries a
// wheel lap or more in the future share the bucket and are refiled.
// The due entries are applied oldest first, so predictor updates keep
// their architectural order.
func (c *CPU) complete() {
	b := int(uint64(c.now) & (wheelSpan - 1))
	h := c.wheelHead[b]
	if h < 0 {
		return
	}
	due := 0
	relist := int32(-1)
	for h >= 0 {
		next := c.wheelNext[h]
		if c.rob[h].doneAt > c.now {
			c.wheelNext[h] = relist
			relist = h
		} else {
			c.scratch[due] = h
			due++
		}
		h = next
	}
	c.wheelHead[b] = relist
	for i := 1; i < due; i++ {
		s := c.scratch[i]
		sq := c.rob[s].seq
		j := i - 1
		for j >= 0 && c.rob[c.scratch[j]].seq > sq {
			c.scratch[j+1] = c.scratch[j]
			j--
		}
		c.scratch[j+1] = s
	}
	for i := 0; i < due; i++ {
		p := int(c.scratch[i])
		e := &c.rob[p]
		c.state[p] = stDone
		c.wakeConsumers(p)
		if e.inst.Op == isa.Branch {
			c.pred.Update(e.inst.PC, e.inst.Taken, e.mispredicted)
			if e.mispredicted && c.mispredictSeq == e.seq {
				c.mispredictSeq = 0
				c.fetchResumeAt = e.doneAt + mem.Cycle(c.cfg.MispredictPenalty)
			}
		}
		if e.inst.Op == isa.Load {
			c.stats.LoadLatencySum += uint64(e.doneAt - e.issueAt)
		}
	}
}

// addWake subscribes the consumer slot to the producer slot's
// completion.
func (c *CPU) addWake(producer, consumer int) {
	w := c.wake[producer*c.maskWords:]
	w[consumer>>6] |= 1 << uint(consumer&63)
}

// wakeConsumers marks the dependents of a just-completed producer slot
// ready once their last outstanding operand arrives. Windows of up to
// 64 entries (the paper's is exactly 64) take the single-word path.
func (c *CPU) wakeConsumers(p int) {
	if c.maskWords == 1 {
		m := c.wake[p]
		if m == 0 {
			return
		}
		c.wake[p] = 0
		for m != 0 {
			t := bits.TrailingZeros64(m)
			m &= m - 1
			if c.nready[t]--; c.nready[t] == 0 {
				c.readyMask[0] |= 1 << uint(t)
				c.readyCount++
			}
		}
		return
	}
	w := c.wake[p*c.maskWords : (p+1)*c.maskWords]
	for wi, m := range w {
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			t := wi<<6 + b
			if c.nready[t]--; c.nready[t] == 0 {
				setBit(c.readyMask, t)
				c.readyCount++
			}
		}
		w[wi] = 0
	}
}

// retire removes completed entries in order, handing stores to the L1
// store buffer. (stDone implies the result has arrived; see
// producerReady.)
func (c *CPU) retire() {
	c.retireStalledStore = false
	for n := 0; n < c.cfg.RetireWidth && c.count > 0; n++ {
		if c.state[c.head] != stDone {
			return
		}
		e := &c.rob[c.head]
		switch e.inst.Op {
		case isa.Store:
			enqueued := false
			if c.l1 != nil {
				enqueued = c.l1.EnqueueStore(e.inst.Addr)
			} else {
				enqueued = c.dmem.EnqueueStore(e.inst.Addr)
			}
			if !enqueued {
				c.stats.StoreBufStalls++
				c.retireStalledStore = true
				return
			}
			c.stats.Stores++
			c.lsqCount--
			c.storeSeqs.pop()
			c.storeBlkCnt[(e.inst.Addr>>3)&63]--
		case isa.Load:
			c.lsqCount--
		}
		if c.checker != nil {
			c.checker.Retire(c.now, e.inst, e.seq)
		}
		c.stats.Retired++
		c.head++
		if c.head == len(c.rob) {
			c.head = 0
		}
		c.headSeq++
		c.count--
	}
}

// FULimits caps per-cycle issue by instruction class, modeling a finite
// functional-unit pool (e.g. the R10000's two integer units, two
// floating point units, and single load/store unit). Zero in any field
// means unlimited for that class.
type FULimits struct {
	Int int `json:"int"` // integer ALU/multiply/divide and branches
	FP  int `json:"fp"`  // floating point
	Mem int `json:"mem"` // loads and stores (address generation)
}

// class buckets an op for FU accounting.
func fuClass(op isa.Op) int {
	switch {
	case op.IsMem():
		return 2
	case op.IsFP():
		return 1
	default:
		return 0
	}
}

// issue selects up to IssueWidth ready entries, oldest first, and starts
// them executing. The paper's processor places no functional-unit
// restriction on the issue mix; configuring FULimits imposes one as an
// ablation.
//
// Only entries whose operands are all available carry a readyMask bit
// (dispatch and wakeConsumers maintain it), so the walk visits exactly
// the issuable entries. An entry passed over by a functional-unit limit
// keeps its bit and is reconsidered next cycle.
func (c *CPU) issue() int {
	if c.readyCount == 0 {
		return 0
	}
	limited := c.cfg.FULimits != nil
	issued := 0
	var classIssued [3]int
	classLimit := [3]int{}
	if limited {
		classLimit = [3]int{c.cfg.FULimits.Int, c.cfg.FULimits.FP, c.cfg.FULimits.Mem}
	}
	n := c.gather(c.readyMask, c.scratch)
	for i := 0; i < n && issued < c.cfg.IssueWidth; i++ {
		p := int(c.scratch[i])
		e := &c.rob[p]
		if limited {
			cls := fuClass(e.inst.Op)
			if classLimit[cls] > 0 && classIssued[cls] >= classLimit[cls] {
				continue
			}
			classIssued[cls]++
		}
		e.issueAt = c.now
		issued++
		clearBit(c.readyMask, p)
		c.readyCount--
		switch e.inst.Op {
		case isa.Load:
			// One cycle of address calculation, then the access
			// contends for a cache port.
			e.addrReadyAt = c.now + mem.Cycle(e.inst.Op.Latency())
			c.state[p] = stWantPort
			setBit(c.portMask, p)
			c.portCount++
		default:
			e.doneAt = c.now + mem.Cycle(e.inst.Op.Latency())
			c.state[p] = stExecuting
			c.pushWheel(p, e.doneAt)
		}
	}
	return issued
}

// memoryAccess lets loads whose addresses are known contend for cache
// ports, oldest first. The load/store unit issues cache accesses in
// program order from the load/store buffer, as the load/store units of
// the paper's era did: a load that cannot start (no port or bank, no
// MSHR, or blocked behind an unresolved store) also holds back the
// loads behind it. This in-order access discipline is what makes cache
// port bandwidth a first-order performance limit in the study.
//
// Store-to-load forwarding satisfies a load from the youngest older
// store to the same 8-byte block once that store has computed its
// address; an older overlapping store whose address is not yet computed
// blocks the load (the model has perfect memory disambiguation, so
// non-overlapping stores never block).
func (c *CPU) memoryAccess() {
	if c.portCount == 0 {
		return
	}
	n := c.gather(c.portMask, c.scratch)
	for i := 0; i < n; i++ {
		p := int(c.scratch[i])
		e := &c.rob[p]
		if e.addrReadyAt > c.now {
			// Address not computed yet: younger loads may still
			// proceed (they issued earlier and are already past
			// address calculation).
			continue
		}
		fwd, fwdSeq, fwdAddr := c.forwardingState(e.seq, e.inst.Addr)
		switch fwd {
		case fwdHit:
			e.doneAt = c.now + 1
			c.state[p] = stExecuting
			clearBit(c.portMask, p)
			c.portCount--
			c.pushWheel(p, e.doneAt)
			c.stats.LoadForwarded++
			if c.checker != nil {
				c.checker.Forward(c.now, e.seq, e.inst.Addr, fwdSeq, fwdAddr)
			}
			continue
		case fwdBlocked:
			return // in-order access: younger loads wait too
		}
		var res mem.LoadResult
		var ok bool
		if c.l1 != nil {
			res, ok = c.l1.TryLoad(c.now, e.inst.Addr)
		} else {
			res, ok = c.dmem.TryLoad(c.now, e.inst.Addr)
		}
		if !ok {
			return // structural stall: younger loads wait too
		}
		e.doneAt = res.Done
		c.state[p] = stExecuting
		clearBit(c.portMask, p)
		c.portCount--
		c.pushWheel(p, e.doneAt)
	}
}

type fwdResult int

const (
	fwdNone fwdResult = iota
	fwdHit
	fwdBlocked
)

// forwardingState scans older stores in the window for an overlap with
// the load's 8-byte block, youngest first (storeSeqs is in program
// order, so the walk runs from the back, skipping stores younger than
// the load). On fwdHit it also returns the forwarding store's sequence
// number and address for the checker; a hit from the L1 store buffer
// (already retired) reports sequence zero.
func (c *CPU) forwardingState(loadSeq uint64, addr uint64) (fwdResult, uint64, uint64) {
	block := addr >> 3
	if c.storeBlkCnt[block&63] == 0 {
		// No window store maps to this block's hash bucket, so the walk
		// cannot find a match; only the L1 store buffer remains.
		if c.l1 != nil {
			if c.l1.StoreBufferProbe(addr) {
				return fwdHit, 0, addr
			}
		} else if c.dmem.StoreBufferProbe(addr) {
			return fwdHit, 0, addr
		}
		return fwdNone, 0, 0
	}
	for i := c.storeSeqs.n - 1; i >= 0; i-- {
		seq := c.storeSeqs.at(i)
		if seq >= loadSeq && !c.debugForwardYounger {
			continue
		}
		p := c.idx(seq)
		e := &c.rob[p]
		if e.inst.Addr>>3 != block {
			continue
		}
		// Youngest older matching store decides.
		st := c.state[p]
		if st == stDone || (st == stExecuting && e.doneAt <= c.now) {
			return fwdHit, seq, e.inst.Addr
		}
		return fwdBlocked, 0, 0
	}
	// Retired stores awaiting drain in the L1 store buffer also forward.
	if c.l1 != nil {
		if c.l1.StoreBufferProbe(addr) {
			return fwdHit, 0, addr
		}
	} else if c.dmem.StoreBufferProbe(addr) {
		return fwdHit, 0, addr
	}
	return fwdNone, 0, 0
}

// dispatch brings instructions from the trace into the window, stopping
// at structural limits and at unresolved mispredicted branches.
func (c *CPU) dispatch() {
	if c.mispredictSeq != 0 {
		c.stats.FetchBlocked++
		return
	}
	if c.now < c.fetchResumeAt {
		c.stats.FetchBlocked++
		return
	}
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.count == len(c.rob) {
			c.stats.WindowFull++
			return
		}
		inst, ok := c.nextInst()
		if !ok {
			return
		}
		if inst.Op.IsMem() && c.lsqCount == c.cfg.LSQSize {
			c.stats.LSQFull++
			c.pendingInst = inst
			c.pendingValid = true
			return
		}
		c.insert(&inst)
		if c.mispredictSeq != 0 {
			// The just-dispatched branch was mispredicted: nothing
			// younger enters the window until it resolves.
			return
		}
	}
}

// nextInst returns the next trace instruction, honouring a previously
// stalled one.
func (c *CPU) nextInst() (isa.Inst, bool) {
	if c.pendingValid {
		c.pendingValid = false
		return c.pendingInst, true
	}
	if c.traceDone {
		return isa.Inst{}, false
	}
	inst, ok := c.reader.Next()
	if !ok {
		c.traceDone = true
		return isa.Inst{}, false
	}
	return inst, true
}

// insert places an instruction at the window tail.
func (c *CPU) insert(inst *isa.Inst) {
	seq := c.nextSeq
	c.nextSeq++
	tail := c.head + c.count
	if tail >= len(c.rob) {
		tail -= len(c.rob)
	}
	e := &c.rob[tail]
	*e = entry{inst: *inst, seq: seq}
	c.state[tail] = stWaiting
	if inst.Src1 != isa.NoReg {
		e.srcSeq1 = c.regProducer[inst.Src1]
	}
	if inst.Src2 != isa.NoReg {
		e.srcSeq2 = c.regProducer[inst.Src2]
	}
	if inst.Dst != isa.NoReg {
		c.regProducer[inst.Dst] = seq
	}
	// Register the entry with the wakeup machinery: subscribe to each
	// still-executing producer (once, if both operands share one), or
	// mark the entry ready now if its operands are already complete.
	pending := uint8(0)
	if !c.producerReady(e.srcSeq1) {
		c.addWake(c.idx(e.srcSeq1), tail)
		pending++
	}
	if e.srcSeq2 != e.srcSeq1 && !c.producerReady(e.srcSeq2) {
		c.addWake(c.idx(e.srcSeq2), tail)
		pending++
	}
	c.nready[tail] = pending
	if pending == 0 {
		setBit(c.readyMask, tail)
		c.readyCount++
	}
	c.count++
	switch inst.Op {
	case isa.Load:
		c.stats.Loads++
		c.lsqCount++
	case isa.Store:
		c.lsqCount++
		c.storeSeqs.push(seq)
		c.storeBlkCnt[(inst.Addr>>3)&63]++
	case isa.Branch:
		c.stats.Branches++
		predicted := c.pred.Predict(inst.PC)
		if predicted != inst.Taken {
			e.mispredicted = true
			c.mispredictSeq = seq
			c.stats.Mispredicts++
		}
	}
}

// hasBit reports whether slot i's bit is set in a window bitset.
func hasBit(m []uint64, i int) bool { return m[i>>6]>>uint(i&63)&1 == 1 }

// CheckInvariants exhaustively cross-checks the core's redundant
// microarchitectural state against a from-scratch recount of the
// window: every fast-path summary the hot loop maintains incrementally
// (LSQ occupancy, the store sequence ring and its block-count filter,
// the ready/port bitsets and their popcount caches, the wakeup
// subscriptions, and the completion timing wheel) must agree with the
// entries themselves. It is O(window) plus the wheel and wake arrays
// and allocates, so it is only called from checkers (see SetChecker) —
// never from the hot loop itself.
//
// The checked invariants, any of whose failure means timing results
// cannot be trusted:
//   - window occupancy and head within bounds; live entries carry
//     consecutive sequence numbers from headSeq (ROB order);
//   - lsqCount equals the number of live loads and stores, within
//     LSQSize;
//   - storeSeqs lists exactly the live stores, in ascending program
//     order, and storeBlkCnt matches a recount of their hashed blocks
//     (drift here silently corrupts store-to-load forwarding);
//   - readyCount/portCount equal their masks' popcounts; mask bits sit
//     only on live slots in the matching state (ready implies waiting
//     with zero outstanding operands, port implies a load awaiting a
//     port), and no bits exist beyond the window;
//   - wake subscriptions point only from live producers to live,
//     still-waiting consumers with outstanding operands;
//   - the timing wheel links exactly the executing entries, each
//     exactly once, with strictly future completion cycles.
func (c *CPU) CheckInvariants() error {
	w := len(c.rob)
	if c.count < 0 || c.count > w {
		return fmt.Errorf("cpu: window count %d outside [0,%d]", c.count, w)
	}
	if c.head < 0 || c.head >= w {
		return fmt.Errorf("cpu: window head %d outside [0,%d)", c.head, w)
	}
	if c.nextSeq != c.headSeq+uint64(c.count) {
		return fmt.Errorf("cpu: nextSeq %d != headSeq %d + count %d", c.nextSeq, c.headSeq, c.count)
	}

	live := make([]bool, w)
	var lsq, stores, executing int
	var blkCnt [64]uint8
	pos := c.head
	for i := 0; i < c.count; i++ {
		e := &c.rob[pos]
		live[pos] = true
		if want := c.headSeq + uint64(i); e.seq != want {
			return fmt.Errorf("cpu: slot %d holds seq %d, ROB order requires %d", pos, e.seq, want)
		}
		switch e.inst.Op {
		case isa.Load, isa.Store:
			lsq++
		}
		if e.inst.Op == isa.Store {
			stores++
			blkCnt[(e.inst.Addr>>3)&63]++
		}
		switch st := c.state[pos]; st {
		case stWaiting:
			if c.nready[pos] == 0 && !hasBit(c.readyMask, pos) {
				return fmt.Errorf("cpu: seq %d waiting with all operands ready but absent from ready mask", e.seq)
			}
		case stExecuting:
			executing++
		case stWantPort:
			if !hasBit(c.portMask, pos) {
				return fmt.Errorf("cpu: seq %d wants a port but is absent from port mask", e.seq)
			}
		case stDone:
			if e.doneAt > c.now {
				return fmt.Errorf("cpu: seq %d done at cycle %d but its result arrives at %d", e.seq, c.now, e.doneAt)
			}
		default:
			return fmt.Errorf("cpu: seq %d in unknown state %d", e.seq, st)
		}
		if pos++; pos == w {
			pos = 0
		}
	}

	if lsq != c.lsqCount {
		return fmt.Errorf("cpu: lsqCount %d but window holds %d memory ops", c.lsqCount, lsq)
	}
	if c.lsqCount > c.cfg.LSQSize {
		return fmt.Errorf("cpu: lsqCount %d exceeds LSQ size %d", c.lsqCount, c.cfg.LSQSize)
	}
	if stores != c.storeSeqs.n {
		return fmt.Errorf("cpu: store ring holds %d seqs but window holds %d stores", c.storeSeqs.n, stores)
	}
	for i := 0; i < c.storeSeqs.n; i++ {
		seq := c.storeSeqs.at(i)
		if seq < c.headSeq || seq >= c.nextSeq {
			return fmt.Errorf("cpu: store ring seq %d outside live window [%d,%d)", seq, c.headSeq, c.nextSeq)
		}
		if i > 0 && seq <= c.storeSeqs.at(i-1) {
			return fmt.Errorf("cpu: store ring out of program order: seq %d after %d", seq, c.storeSeqs.at(i-1))
		}
		if op := c.rob[c.idx(seq)].inst.Op; op != isa.Store {
			return fmt.Errorf("cpu: store ring seq %d is a %v, not a store", seq, op)
		}
	}
	if blkCnt != c.storeBlkCnt {
		return fmt.Errorf("cpu: store block-count filter diverged from window recount")
	}

	ready, port := 0, 0
	for wi := 0; wi < c.maskWords; wi++ {
		ready += bits.OnesCount64(c.readyMask[wi])
		port += bits.OnesCount64(c.portMask[wi])
	}
	if ready != c.readyCount {
		return fmt.Errorf("cpu: readyCount %d but ready mask popcount %d", c.readyCount, ready)
	}
	if port != c.portCount {
		return fmt.Errorf("cpu: portCount %d but port mask popcount %d", c.portCount, port)
	}
	for i := 0; i < c.maskWords*64; i++ {
		rb, pb := false, false
		if i < w {
			rb, pb = hasBit(c.readyMask, i), hasBit(c.portMask, i)
		} else {
			// Bits beyond the window would corrupt gather's walks.
			if c.readyMask[i>>6]>>uint(i&63)&1 == 1 || c.portMask[i>>6]>>uint(i&63)&1 == 1 {
				return fmt.Errorf("cpu: mask bit %d set beyond the %d-entry window", i, w)
			}
			continue
		}
		if rb {
			if !live[i] || c.state[i] != stWaiting || c.nready[i] != 0 {
				return fmt.Errorf("cpu: ready mask bit on slot %d (live=%v state=%d nready=%d)", i, live[i], c.state[i], c.nready[i])
			}
		}
		if pb {
			if !live[i] || c.state[i] != stWantPort {
				return fmt.Errorf("cpu: port mask bit on slot %d (live=%v state=%d)", i, live[i], c.state[i])
			}
			if c.rob[i].inst.Op != isa.Load {
				return fmt.Errorf("cpu: non-load seq %d waiting for a cache port", c.rob[i].seq)
			}
		}
	}

	for p := 0; p < w; p++ {
		words := c.wake[p*c.maskWords : (p+1)*c.maskWords]
		for wi, m := range words {
			for m != 0 {
				t := wi<<6 + bits.TrailingZeros64(m)
				m &= m - 1
				if !live[p] {
					return fmt.Errorf("cpu: dead slot %d still wakes slot %d", p, t)
				}
				if t >= w || !live[t] || c.state[t] != stWaiting || c.nready[t] == 0 {
					return fmt.Errorf("cpu: wake edge %d->%d to a slot not awaiting operands", p, t)
				}
			}
		}
	}

	inWheel := make([]bool, w)
	wheeled := 0
	for b := range c.wheelHead {
		for p := c.wheelHead[b]; p >= 0; p = c.wheelNext[p] {
			if int(p) >= w {
				return fmt.Errorf("cpu: wheel bucket %d links slot %d beyond the window", b, p)
			}
			if inWheel[p] {
				return fmt.Errorf("cpu: slot %d linked twice in the timing wheel", p)
			}
			inWheel[p] = true
			wheeled++
			if !live[p] || c.state[p] != stExecuting {
				return fmt.Errorf("cpu: wheel links slot %d (live=%v state=%d), want an executing entry", p, live[p], c.state[p])
			}
			if c.rob[p].doneAt <= c.now {
				return fmt.Errorf("cpu: seq %d still wheeled at cycle %d with completion %d overdue", c.rob[p].seq, c.now, c.rob[p].doneAt)
			}
		}
	}
	if wheeled != executing {
		return fmt.Errorf("cpu: timing wheel links %d entries but %d are executing", wheeled, executing)
	}
	return nil
}
