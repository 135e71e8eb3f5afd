package sim

import (
	"fmt"
	"math"

	"hbcache/internal/cpu"
)

// SampleSpec configures SimPoint-style interval sampling of the measure
// phase. The phase is cut into IntervalInsts-sized intervals; in each,
// the simulator fast-forwards functionally (caches warmed, predictor
// trained, no timing) to the interval's tail, re-warms the pipeline on
// the timing model for WarmupInsts, then times a WindowInsts window.
// Whole-run cycles and miss rates are estimated by weighting each
// window's rates with its interval's instruction count.
type SampleSpec struct {
	IntervalInsts uint64 `json:"interval_insts"`
	WindowInsts   uint64 `json:"window_insts"`
	WarmupInsts   uint64 `json:"warmup_insts"`
}

// validate rejects degenerate sampling plans. A nil spec (sampling off)
// is valid.
func (s *SampleSpec) validate(measureInsts uint64) error {
	if s == nil {
		return nil
	}
	if s.IntervalInsts == 0 || s.WindowInsts == 0 || s.WarmupInsts == 0 {
		return fmt.Errorf("%w: sample interval, window and warmup must all be positive, got interval=%d window=%d warmup=%d",
			ErrInvalidConfig, s.IntervalInsts, s.WindowInsts, s.WarmupInsts)
	}
	if s.WarmupInsts+s.WindowInsts > s.IntervalInsts {
		return fmt.Errorf("%w: sample warmup+window (%d) must fit in the interval (%d)",
			ErrInvalidConfig, s.WarmupInsts+s.WindowInsts, s.IntervalInsts)
	}
	if s.IntervalInsts > measureInsts {
		return fmt.Errorf("%w: sample interval (%d) exceeds the measure window (%d) — sampling would degenerate to one partial interval",
			ErrInvalidConfig, s.IntervalInsts, measureInsts)
	}
	return nil
}

// SampleSummary reports how a sampled run spent its budget and how much
// to trust its estimates.
type SampleSummary struct {
	// Windows is the number of timed sample windows.
	Windows int `json:"windows"`
	// TimedInsts and TimedCycles cover the timed portions only
	// (per-interval pipeline warmups plus windows); TotalInsts is the
	// full measure phase the estimates extrapolate to.
	TimedInsts  uint64 `json:"timed_insts"`
	TotalInsts  uint64 `json:"total_insts"`
	TimedCycles uint64 `json:"timed_cycles"`
	// Speedup is estimated whole-run cycles over timed cycles — how many
	// times more simulated time an exhaustive run would have cost.
	Speedup float64 `json:"speedup"`
	// IPCErrorBound is the relative half-width of the 95% confidence
	// interval on the IPC estimate, from the variance across window
	// IPCs (0 when fewer than two windows).
	IPCErrorBound float64 `json:"ipc_error_bound"`
}

// offsetFrac is the golden-ratio low-discrepancy sequence: frac(i*φ).
// Successive values spread maximally evenly over [0,1) without a
// random source, which keeps sampled runs exactly reproducible.
func offsetFrac(i int) float64 {
	const phi = 0.6180339887498949
	v := float64(i+1) * phi
	return v - math.Floor(v)
}

// windowSample is one timed window's measurements.
type windowSample struct {
	weight  float64 // interval instructions this window represents
	retired uint64
	cycles  uint64
	misses  uint64 // L1 load+store misses
	lbHits  uint64
	loads   uint64 // L1 loads (line-buffer hit-rate denominator)
	latSum  uint64 // cpu load latency sum
	cpuLds  uint64 // cpu loads (latency denominator)
}

// maxPresizedWindows caps the window slice a sampler reserves up
// front, so a pathological plan (a tiny interval over a huge measure
// phase) cannot reserve memory it may never fill; plans under the cap
// never grow the slice mid-run.
const maxPresizedWindows = 4096

// sampler is a sampled lane's position in its measure-phase schedule.
// Each interval is fast-forwarded functionally up to its window, whose
// position is stratified with the golden-ratio sequence; then the
// pipeline re-warms for WarmupInsts on the timing model, a WindowInsts
// window is timed, and the rest of the interval is fast-forwarded.
// Sampled runs never write snapshots: the stream is discontinuous, so
// a checkpoint could not promise exact resume.
type sampler struct {
	spec     SampleSpec
	left     uint64 // measure-phase instructions not yet scheduled
	idx      int    // intervals scheduled so far
	interval uint64 // the current interval's instruction count
	window   uint64 // its timed window, after the pipeline re-warm
	tail     uint64 // its fast-forward after the window
	inWindow bool

	// Counters at the start of the current interval's timed span and of
	// its window.
	timedStart, winStart                     cpu.Stats
	l1Loads, l1LoadMiss, l1StoreMiss, lbHits uint64

	windows                 []windowSample
	timedInsts, timedCycles uint64
}

func newSampler(spec SampleSpec, measureInsts uint64) *sampler {
	n := (measureInsts + spec.IntervalInsts - 1) / spec.IntervalInsts
	if n > maxPresizedWindows {
		n = maxPresizedWindows
	}
	return &sampler{spec: spec, left: measureInsts, windows: make([]windowSample, 0, n)}
}

// nextInterval schedules the next interval: its lead fast-forward runs
// here, and the timed pipeline re-warm becomes the current phase's
// remaining work. It reports true once every interval has been
// measured.
func (m *machine) nextInterval() (bool, error) {
	s := m.smp
	if s.left == 0 {
		if len(s.windows) == 0 {
			return false, fmt.Errorf("%w: no sample window retired instructions", ErrInvalidConfig)
		}
		return true, nil
	}
	interval := s.spec.IntervalInsts
	if interval > s.left {
		interval = s.left
	}
	s.left -= interval
	wu, win := s.spec.WarmupInsts, s.spec.WindowInsts
	var lead, tail uint64
	if wu+win >= interval {
		// Tail interval too small to skip anything: time all of it.
		wu, win = 0, interval
	} else {
		// Stratify the window's position within its interval with the
		// golden-ratio sequence: a fixed position (say, always the
		// interval's tail) phase-locks onto the workloads' periodic
		// kernel/user structure and biases every window toward the
		// same phase. The low-discrepancy offsets decorrelate the
		// samples from any periodicity while staying fully
		// deterministic — same config, same windows, bit for bit.
		slack := interval - wu - win
		lead = uint64(offsetFrac(s.idx) * float64(slack))
		if lead > slack {
			lead = slack
		}
		tail = slack - lead
	}
	s.idx++
	if lead > 0 {
		if err := m.fastForward(lead, nil); err != nil {
			return false, err
		}
	}
	s.interval, s.window, s.tail, s.inWindow = interval, win, tail, false
	s.timedStart = m.core.Stats()
	m.remaining = wu
	return false, nil
}

// sampleStep makes the transition at the end of a timed span of the
// sampled measure phase: from the pipeline re-warm into the window, or
// from the window — recording its measurements and fast-forwarding the
// interval's tail — into the next interval.
func (m *machine) sampleStep() (bool, error) {
	s := m.smp
	l1 := m.sys.L1
	if !s.inWindow {
		s.inWindow = true
		s.winStart = m.core.Stats()
		s.l1Loads, s.l1LoadMiss, s.l1StoreMiss, s.lbHits = l1.Loads(), l1.LoadMisses(), l1.StoreMisses(), 0
		if lb := l1.LineBuffer(); lb != nil {
			s.lbHits = lb.Hits()
		}
		m.remaining = s.window
		return false, nil
	}
	s0, s1 := s.winStart, m.core.Stats()
	w := windowSample{
		weight:  float64(s.interval),
		retired: s1.Retired - s0.Retired,
		cycles:  s1.Cycles - s0.Cycles,
		misses:  (l1.LoadMisses() - s.l1LoadMiss) + (l1.StoreMisses() - s.l1StoreMiss),
		loads:   l1.Loads() - s.l1Loads,
		latSum:  s1.LoadLatencySum - s0.LoadLatencySum,
		cpuLds:  s1.Loads - s0.Loads,
	}
	if lb := l1.LineBuffer(); lb != nil {
		w.lbHits = lb.Hits() - s.lbHits
	}
	s.timedInsts += s1.Retired - s.timedStart.Retired
	s.timedCycles += s1.Cycles - s.timedStart.Cycles
	if w.retired > 0 && w.cycles > 0 {
		s.windows = append(s.windows, w)
	}
	if s.tail > 0 {
		if err := m.fastForward(s.tail, nil); err != nil {
			return false, err
		}
	}
	return m.nextInterval()
}

// sampledResult recombines the window measurements into whole-run
// estimates: each window's CPI and per-instruction rates stand in for
// its entire interval, weighted by the interval's instruction count.
func (m *machine) sampledResult() Result {
	windows, timedInsts, timedCycles := m.smp.windows, m.smp.timedInsts, m.smp.timedCycles
	var totalWeight, estCycles, estMisses float64
	var lbNum, lbDen, latNum, latDen float64
	ipcs := make([]float64, len(windows))
	for i, w := range windows {
		cpi := float64(w.cycles) / float64(w.retired)
		ipcs[i] = float64(w.retired) / float64(w.cycles)
		totalWeight += w.weight
		estCycles += w.weight * cpi
		estMisses += w.weight * float64(w.misses) / float64(w.retired)
		if w.loads > 0 {
			lbNum += w.weight * float64(w.lbHits) / float64(w.loads)
			lbDen += w.weight
		}
		if w.cpuLds > 0 {
			latNum += w.weight * float64(w.latSum) / float64(w.cpuLds)
			latDen += w.weight
		}
	}

	// 95% confidence half-width on mean window IPC, relative. Windows
	// are treated as independent draws; with the synthetic workloads'
	// phase structure this is the conventional SimPoint-style bound,
	// not a guarantee.
	mean := 0.0
	for _, v := range ipcs {
		mean += v
	}
	mean /= float64(len(ipcs))
	bound := 0.0
	if len(ipcs) >= 2 && mean > 0 {
		varSum := 0.0
		for _, v := range ipcs {
			varSum += (v - mean) * (v - mean)
		}
		sd := math.Sqrt(varSum / float64(len(ipcs)-1))
		bound = 1.96 * sd / (math.Sqrt(float64(len(ipcs))) * mean)
	}

	total := m.cfg.MeasureInsts
	res := Result{
		Benchmark:       m.cfg.Benchmark,
		Cycles:          uint64(estCycles + 0.5),
		Instructions:    total,
		BranchAccuracy:  m.core.Predictor().Accuracy(),
		CPUStats:        m.core.Stats(),
		MissesPerInst:   estMisses / totalWeight,
		MeanLoadLatency: 0,
	}
	if estCycles > 0 {
		res.IPC = float64(total) / estCycles
	}
	if lbDen > 0 {
		res.LineBufferHitRate = lbNum / lbDen
	}
	if latDen > 0 {
		res.MeanLoadLatency = latNum / latDen
	}
	if m.stream != nil {
		// Covers the timed portions of the stream only — sampled runs
		// retire a strict subset of the exhaustive stream.
		res.StreamHash = m.stream.Hash()
	}
	summary := &SampleSummary{
		Windows:       len(windows),
		TimedInsts:    timedInsts,
		TotalInsts:    total,
		TimedCycles:   timedCycles,
		IPCErrorBound: bound,
	}
	if timedCycles > 0 {
		summary.Speedup = estCycles / float64(timedCycles)
	}
	res.Sampled = summary
	return res
}
