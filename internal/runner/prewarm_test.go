package runner

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"hbcache/internal/sim"
)

// groupedConfigs is an interleaved sweep: realConfigs' three streams
// (gcc, li, tomcatv) four configs each, plus one compress config that
// is a stream group of its own.
func groupedConfigs() []sim.Config {
	cfgs := realConfigs(12)
	solo := realConfig(0)
	solo.Benchmark = "compress"
	return append(cfgs, solo)
}

// TestRunGroupedDispatch pins stream-grouped dispatch of batches of
// one: jobs run grouped by stream in order of first appearance,
// results come back in submission order bit-identical to cold runs at
// any worker count, and only members of multi-job groups use the
// prewarm cache.
func TestRunGroupedDispatch(t *testing.T) {
	cfgs := groupedConfigs()
	cold := make([]sim.Result, len(cfgs))
	for i, cfg := range cfgs {
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cold[i] = res
	}
	for _, workers := range []int{1, 8} {
		r, err := New(Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		jrs, err := r.Run(context.Background(), cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i, jr := range jrs {
			if jr.Err != nil {
				t.Fatalf("j%d job %d: %v", workers, i, jr.Err)
			}
			if !reflect.DeepEqual(jr.Config, cfgs[i]) {
				t.Errorf("j%d slot %d holds another job's config", workers, i)
			}
			if !reflect.DeepEqual(jr.Result, cold[i]) {
				t.Errorf("j%d job %d: result differs from a cold run", workers, i)
			}
		}
		m := r.Metrics()
		if m.PrewarmHits+m.PrewarmMisses != 12 || m.PrewarmMisses < 3 {
			t.Errorf("j%d: %d prewarm hits, %d misses; want 12 grouped runs, at least 3 fills", workers, m.PrewarmHits, m.PrewarmMisses)
		}
		if workers == 1 && (m.PrewarmHits != 9 || m.PrewarmMisses != 3) {
			t.Errorf("j1: %d prewarm hits, %d misses; want 9, 3", m.PrewarmHits, m.PrewarmMisses)
		}
	}
}

// TestRunDispatchOrder pins the dispatch order itself: with one worker
// the simulator sees each stream group's jobs back to back.
func TestRunDispatchOrder(t *testing.T) {
	cfgs := groupedConfigs()
	r := newTest(t, Options{Workers: 1})
	var mu sync.Mutex
	var seen []string
	r.sim = func(_ context.Context, cfg sim.Config) (sim.Result, error) {
		mu.Lock()
		seen = append(seen, cfg.Benchmark)
		mu.Unlock()
		return sim.Result{Benchmark: cfg.Benchmark}, nil
	}
	if _, err := r.Run(context.Background(), cfgs); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, b := range []string{"gcc", "li", "tomcatv"} {
		want = append(want, b, b, b, b)
	}
	want = append(want, "compress")
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("dispatch order %v, want %v", seen, want)
	}
}

// TestRunJobBypassesPrewarmCache pins that single jobs — a Run of one,
// the service's path — never pay for recording a prefix.
func TestRunJobBypassesPrewarmCache(t *testing.T) {
	r, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range realConfigs(4) {
		if jr := runJob(context.Background(), r, cfg); jr.Err != nil {
			t.Fatal(jr.Err)
		}
	}
	if m := r.Metrics(); m.PrewarmHits != 0 || m.PrewarmMisses != 0 {
		t.Errorf("Run of one touched the prewarm cache: %d hits, %d misses", m.PrewarmHits, m.PrewarmMisses)
	}
}
