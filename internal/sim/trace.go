package sim

import (
	"fmt"

	"hbcache/internal/workload"
)

// TraceRef selects a recorded instruction trace as the run's workload
// instead of the synthetic generator. Both fields are part of the
// stable config wire format:
//
//   - Path locates the trace file on the machine that will simulate.
//     It is location-specific, so the runner's cache key drops it.
//   - Digest is the trace's content address (the hex SHA-256 its
//     trailer sealed). When set, the opened file must match or the run
//     fails — and it is what the cache key, service dedup, and cluster
//     workers address the trace by.
//
// Boundaries resolve refs before simulating: the CLIs fill Digest from
// the file, the service fills Path from its content-addressed trace
// store (fetching from the coordinator if needed).
type TraceRef struct {
	Path   string `json:"path,omitempty"`
	Digest string `json:"digest,omitempty"`
}

// open loads and verifies the referenced trace, pinning the digest when
// the ref carries one. Errors wrap ErrInvalidConfig: a ref that cannot
// open never gets better by retrying the same simulation.
func (r *TraceRef) open() (*workload.Trace, error) {
	if r.Path == "" {
		return nil, fmt.Errorf("%w: trace ref has no local path (digest %.12s…): resolve it against a trace store before running", ErrInvalidConfig, r.Digest)
	}
	tr, err := workload.OpenTraceFile(r.Path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	if r.Digest != "" && tr.Digest() != r.Digest {
		return nil, fmt.Errorf("%w: trace %s has digest %.12s…, config pins %.12s…", ErrInvalidConfig, r.Path, tr.Digest(), r.Digest)
	}
	return tr, nil
}

// newSource builds the config's instruction stream: a fresh synthetic
// generator, or a replay cursor over the referenced trace. Everything
// downstream of this seam — timing, batching, prewarm, sampling,
// snapshots — is workload-agnostic.
func (c Config) newSource() (workload.Source, error) {
	if c.Trace == nil {
		gen, err := workload.New(c.Benchmark, c.Seed)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
		return gen, nil
	}
	tr, err := c.Trace.open()
	if err != nil {
		return nil, err
	}
	return tr.NewReader(), nil
}

// DefaultTraceSlack is the extra instructions RecordTrace appends past
// the configured windows. The core fetches ahead of retirement, but
// only down the recorded path: at most its reorder window of
// not-yet-retired instructions plus one held back on a full load/store
// queue, since dispatch stops at a mispredicted branch until it
// resolves rather than fetching wrong-path instructions. A trace cut
// exactly at prewarm+warmup+measure would end the stream under that
// last window and cut the measured window short; 16384 is far more
// than any configured window. The prewarm cache's stream tapes carry
// slack for the same reason (tapeSlack).
const DefaultTraceSlack = 16384

// RecordTrace captures the instruction stream cfg would simulate into
// sealed hbcache-trace-v1 bytes: prewarm + warmup + measure
// instructions plus slack (DefaultTraceSlack if 0). Replaying the
// recording through the same cfg-with-a-trace-ref is bit-identical to
// the live run — the conformance property the trace test matrix pins.
func RecordTrace(cfg Config, slack uint64) ([]byte, error) {
	cfg = cfg.WithDefaults()
	if cfg.Trace != nil {
		return nil, fmt.Errorf("%w: config already replays a trace; record from a synthetic benchmark", ErrInvalidConfig)
	}
	if slack == 0 {
		slack = DefaultTraceSlack
	}
	n := cfg.PrewarmInsts + cfg.WarmupInsts + cfg.MeasureInsts + slack
	return workload.RecordTrace(cfg.Benchmark, cfg.Seed, n)
}
