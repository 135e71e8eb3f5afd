package runner

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"hbcache/internal/sim"
)

// This file is the runner's lockstep-batch scheduling path
// (Options.BatchSize > 1): jobs that miss the memo and disk cache are
// sliced into batches of up to BatchSize and each batch runs as one
// sim.RunBatch on a pool worker. Provenance (memo, cache), metrics,
// retry semantics, and submission-order results are identical to the
// per-run path — only the execution grouping changes.

// batchJob is one submitted config's scheduling state on the batched
// path: its slot in the results slice, content key, and the memo entry
// this Run owns or joined.
type batchJob struct {
	idx   int
	cfg   sim.Config
	key   string
	entry *memoEntry
	start time.Time
}

// runBatched is Run for BatchSize > 1.
func (r *Runner) runBatched(ctx context.Context, cfgs []sim.Config) ([]JobResult, error) {
	results := make([]JobResult, len(cfgs))
	r.mu.Lock()
	r.metrics.Submitted += len(cfgs)
	r.mu.Unlock()

	// Claim or join a memo entry per job, in submission order so
	// duplicates within one sweep dedup exactly as on the per-run path.
	var owned, joined []*batchJob
	for i, cfg := range cfgs {
		jr := &results[i]
		jr.Config = cfg
		start := time.Now()
		if err := ctx.Err(); err != nil {
			jr.Err = err
			jr.Wall = time.Since(start)
			r.finish(jr)
			continue
		}
		key, err := Key(cfg)
		if err != nil {
			jr.Err = fmt.Errorf("runner: keying %s config: %w", cfg.Benchmark, err)
			jr.Wall = time.Since(start)
			r.finish(jr)
			continue
		}
		r.mu.Lock()
		entry, inFlight := r.memo[key]
		if !inFlight {
			entry = &memoEntry{done: make(chan struct{})}
			r.memo[key] = entry
		}
		r.mu.Unlock()
		job := &batchJob{idx: i, cfg: cfg, key: key, entry: entry, start: start}
		if inFlight {
			joined = append(joined, job)
		} else {
			owned = append(owned, job)
		}
	}

	// Group owned jobs by stream, so lanes that can share one stream
	// land in one batch, then slice them into batches and fan the
	// batches across the pool. Submission order is kept within a group
	// and groups keep their order of first appearance, so a sweep that
	// is already grouped (benchmark-major) batches exactly as
	// submitted.
	ownedCfgs := make([]sim.Config, len(owned))
	for i, job := range owned {
		ownedCfgs[i] = job.cfg
	}
	grouped := make([]*batchJob, 0, len(owned))
	for _, g := range sim.StreamGroups(ownedCfgs) {
		for _, i := range g {
			grouped = append(grouped, owned[i])
		}
	}
	var batches [][]*batchJob
	for rest := grouped; len(rest) > 0; {
		n := r.batch
		if n > len(rest) {
			n = len(rest)
		}
		batches = append(batches, rest[:n])
		rest = rest[n:]
	}
	workers := r.workers
	if workers > len(batches) {
		workers = len(batches)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for bi := range idx {
				r.doBatch(ctx, batches[bi], results)
			}
		}()
	}
dispatch:
	for bi := range batches {
		select {
		case idx <- bi:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()

	// Batches the dispatcher never handed out: settle their jobs as
	// cancelled and publish their memo entries so no duplicate waits
	// forever on an execution that will not happen.
	for _, job := range owned {
		select {
		case <-job.entry.done:
		default:
			job.entry.err = ctx.Err()
			close(job.entry.done)
			jr := &results[job.idx]
			jr.Err = job.entry.err
			jr.Wall = time.Since(job.start)
			r.finish(jr)
		}
	}
	// Duplicates: their execution is finished (above or in another
	// concurrent Run), or ctx is gone.
	for _, job := range joined {
		jr := &results[job.idx]
		select {
		case <-job.entry.done:
			jr.Result, jr.Err = job.entry.res, job.entry.err
			jr.MemoHit = true
		case <-ctx.Done():
			jr.Err = ctx.Err()
		}
		jr.Wall = time.Since(job.start)
		r.finish(jr)
	}
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, nil
}

// doBatch produces the results of one batch: disk-cache lookups first,
// then a single lockstep sim.RunBatch over the misses, with per-lane
// fallback to per-run retries for retryable failures. Every job's memo
// entry is published exactly once.
func (r *Runner) doBatch(ctx context.Context, jobs []*batchJob, results []JobResult) {
	var runJobs []*batchJob
	for _, job := range jobs {
		jr := &results[job.idx]
		if r.store != nil {
			if res, ok := r.store.Get(job.key); ok {
				job.entry.res = res
				close(job.entry.done)
				jr.Result, jr.CacheHit = res, true
				jr.Wall = time.Since(job.start)
				r.finish(jr)
				continue
			}
		}
		runJobs = append(runJobs, job)
	}
	if len(runJobs) == 0 {
		return
	}

	batchCfgs := make([]sim.Config, len(runJobs))
	for i, job := range runJobs {
		batchCfgs[i] = job.cfg
	}
	res, errs := r.simulateBatch(ctx, batchCfgs)
	for i, job := range runJobs {
		jr := &results[job.idx]
		jr.Attempts = 1
		laneRes, laneErr := res[i], errs[i]
		if laneErr != nil && Retryable(laneErr) && r.retries > 0 {
			laneRes, laneErr = r.retrySingle(ctx, job.cfg, jr, laneErr)
		}
		if laneErr != nil {
			job.entry.err = fmt.Errorf("runner: %s: %w", job.cfg.Benchmark, laneErr)
			jr.Err = job.entry.err
		} else {
			job.entry.res = laneRes
			jr.Result = laneRes
			if r.store != nil {
				// Same checkpoint-before-report discipline as the
				// per-run path; a store write failure is not a job
				// failure.
				_ = r.store.Put(job.key, job.cfg, laneRes)
			}
		}
		close(job.entry.done)
		jr.Wall = time.Since(job.start)
		r.finish(jr)
	}
}

// simulateBatch runs one lockstep batch, converting a panic into one
// error per lane exactly as simulate does per run; the lanes then take
// the per-run retry path, which isolates a genuinely poisonous config
// to its own job.
func (r *Runner) simulateBatch(ctx context.Context, cfgs []sim.Config) (res []sim.Result, errs []error) {
	defer func() {
		if p := recover(); p != nil {
			err := fmt.Errorf("simulation panicked: %v\n%s", p, debug.Stack())
			res = make([]sim.Result, len(cfgs))
			errs = make([]error, len(cfgs))
			for i := range errs {
				errs[i] = err
			}
		}
	}()
	return sim.RunBatch(ctx, cfgs, r.runOpts)
}

// retrySingle re-runs one lane on the per-run simulator after a
// retryable batch failure, honoring the runner's retry budget and
// backoff. It returns the first success or the last error.
func (r *Runner) retrySingle(ctx context.Context, cfg sim.Config, jr *JobResult, prev error) (sim.Result, error) {
	err := prev
	for attempt := 1; attempt <= r.retries && Retryable(err); attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return sim.Result{}, cerr
		}
		r.mu.Lock()
		r.metrics.Retries++
		r.mu.Unlock()
		if !r.sleepBackoff(ctx, attempt-1) {
			return sim.Result{}, ctx.Err()
		}
		jr.Attempts++
		var res sim.Result
		if res, err = r.simulate(ctx, cfg, false); err == nil {
			return res, nil
		}
	}
	return sim.Result{}, err
}
