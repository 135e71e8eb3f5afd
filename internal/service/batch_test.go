package service

import (
	"context"
	"testing"
	"time"

	"hbcache/internal/cpu"
	"hbcache/internal/mem"
	"hbcache/internal/runner"
	"hbcache/internal/sim"
)

// realBatchConfig is a small real simulation; the index varies the
// organization so a drained batch holds shareable but distinct lanes.
func realBatchConfig(i int) sim.Config {
	orgs := []mem.SystemConfig{
		mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.IdealPorts, Count: 2}, false),
		mem.DefaultSRAMSystem(32<<10, 2, mem.PortConfig{Kind: mem.BankedPorts, Count: 8}, false),
		mem.DefaultSRAMSystem(32<<10, 2, mem.PortConfig{Kind: mem.DuplicatePorts}, true),
	}
	return sim.Config{
		Benchmark:    "gcc",
		Seed:         1,
		CPU:          cpu.DefaultConfig(),
		Memory:       orgs[i%len(orgs)],
		PrewarmInsts: 10_000,
		WarmupInsts:  1_000,
		MeasureInsts: 3_000,
	}
}

// TestServiceBatchedDrain exercises the BatchSize worker loop end to
// end: a burst of submissions is drained into lockstep batches, every
// job completes, and each result is bit-identical to a direct
// single-run simulation of the same config.
func TestServiceBatchedDrain(t *testing.T) {
	r, err := runner.New(runner.Options{Workers: 1, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(r, Options{Concurrency: 1, QueueSize: 32})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	if svc.opts.BatchSize != 4 {
		t.Fatalf("service BatchSize = %d, want 4 adopted from the runner", svc.opts.BatchSize)
	}

	const n = 6
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		// Configs repeat after the 3 organizations; later submissions
		// legitimately dedup onto earlier jobs.
		jv, _, err := svc.Submit(realBatchConfig(i))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = jv.ID
	}

	deadline := time.Now().Add(30 * time.Second)
	for i, id := range ids {
		for {
			jv, err := svc.Job(id)
			if err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
			if jv.State == StateDone {
				want, err := sim.Run(jv.Config)
				if err != nil {
					t.Fatalf("job %d single run: %v", i, err)
				}
				if jv.Result == nil || *jv.Result != want {
					t.Errorf("job %d: batched service result diverges:\nservice: %+v\nsingle:  %+v", i, jv.Result, want)
				}
				break
			}
			if jv.State == StateFailed {
				t.Fatalf("job %d failed: %s", i, jv.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d stuck in state %s", i, jv.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestServiceBatchSizeOneKeepsClassicLoop pins the opt-in default: a
// plain runner yields BatchSize 1, so the worker loop's gulps hold one
// job each and run one job at a time through RunJob.
func TestServiceBatchSizeOneKeepsClassicLoop(t *testing.T) {
	r, err := runner.New(runner.Options{Workers: 2, Sim: stubSim})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(r, Options{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	if svc.opts.BatchSize != 1 {
		t.Fatalf("service BatchSize = %d, want 1", svc.opts.BatchSize)
	}
}
