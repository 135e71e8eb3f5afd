package cpu

// Predictor is the hardware branch predictor: a table of two-bit
// saturating counters indexed by branch PC, as in the MIPS R10000 the
// paper's processor model follows, or — when built with NewGshare — by
// PC xor a global history register (an anachronistic upgrade, provided
// as an ablation). Unconditional jumps are always predicted correctly
// by the front end.
type Predictor struct {
	counters []uint8
	mask     uint64

	gshare      bool
	history     uint64
	historyMask uint64

	predictions Counter
	mispredicts Counter
}

// DefaultPredictorEntries matches the R10000's 512-entry branch history
// table.
const DefaultPredictorEntries = 512

// NewPredictor returns a two-bit predictor with the given table size
// (rounded up to a power of two), initialized weakly taken.
func NewPredictor(entries int) *Predictor {
	n := 1
	for n < entries {
		n <<= 1
	}
	p := &Predictor{counters: make([]uint8, n), mask: uint64(n - 1)}
	for i := range p.counters {
		p.counters[i] = 2 // weakly taken: loops warm up fast
	}
	return p
}

// NewGshare returns a gshare predictor: the counter table is indexed by
// the branch PC xor the last historyBits branch outcomes.
func NewGshare(entries, historyBits int) *Predictor {
	p := NewPredictor(entries)
	p.gshare = true
	if historyBits <= 0 {
		historyBits = 8
	}
	p.historyMask = 1<<uint(historyBits) - 1
	return p
}

func (p *Predictor) index(pc uint64) uint64 {
	i := pc >> 2
	if p.gshare {
		i ^= p.history & p.historyMask
	}
	return i & p.mask
}

// Predict returns the predicted direction for the branch at pc.
func (p *Predictor) Predict(pc uint64) bool {
	p.predictions.Inc()
	return p.counters[p.index(pc)] >= 2
}

// Update trains the predictor with the resolved outcome and records
// whether the earlier prediction was wrong.
func (p *Predictor) Update(pc uint64, taken, mispredicted bool) {
	if mispredicted {
		p.mispredicts.Inc()
	}
	i := p.index(pc)
	c := p.counters[i]
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	p.counters[i] = c
	if p.gshare {
		p.history = p.history<<1 | boolBit(taken)
	}
}

// Warm trains the counters (and gshare history) with a resolved branch
// outcome without charging prediction statistics. The functional
// fast-forward prewarm uses it so the measured window starts with a
// trained predictor but accuracy reflects only predictions actually made.
func (p *Predictor) Warm(pc uint64, taken bool) {
	p.Update(pc, taken, false)
}

// WarmPredictor is a trained predictor's counters and global history,
// kept with the geometry they belong to (table size, gshare and its
// history bits), so that a fresh predictor of that geometry can take
// them instead of being trained again.
type WarmPredictor struct {
	counters    []uint8
	history     uint64
	gshare      bool
	historyMask uint64
}

// CaptureWarm copies p's counters, history and geometry into w. Warm
// training charges no prediction statistics, so on a predictor trained
// only through Warm this is its whole state.
func (p *Predictor) CaptureWarm(w *WarmPredictor) {
	w.counters = append(w.counters[:0], p.counters...)
	w.history, w.gshare, w.historyMask = p.history, p.gshare, p.historyMask
}

// ApplyWarm gives p the state captured in w when p has w's geometry,
// reporting whether it did. Applied to a fresh predictor it is
// bit-identical to replaying the Warm calls that trained w's source;
// a predictor of another geometry is left untouched.
func (p *Predictor) ApplyWarm(w *WarmPredictor) bool {
	if len(w.counters) != len(p.counters) || w.gshare != p.gshare || w.historyMask != p.historyMask {
		return false
	}
	copy(p.counters, w.counters)
	p.history = w.history
	return true
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Predictions returns the number of conditional branches predicted.
func (p *Predictor) Predictions() uint64 { return p.predictions.Value() }

// Mispredicts returns the number of wrong predictions.
func (p *Predictor) Mispredicts() uint64 { return p.mispredicts.Value() }

// Accuracy returns the fraction of correct predictions, or 1 when no
// branches have resolved.
func (p *Predictor) Accuracy() float64 {
	if p.predictions == 0 {
		return 1
	}
	return 1 - float64(p.mispredicts)/float64(p.predictions)
}

// Counter is a simple event count.
type Counter uint64

// Inc adds one.
func (c *Counter) Inc() { *c++ }

// Add adds d.
func (c *Counter) Add(d uint64) { *c += Counter(d) }

// Value reads the count.
func (c Counter) Value() uint64 { return uint64(c) }
