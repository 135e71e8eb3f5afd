package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hbcache/internal/cluster"
	"hbcache/internal/cpu"
	"hbcache/internal/isa"
	"hbcache/internal/mem"
	"hbcache/internal/runner"
	"hbcache/internal/service"
	"hbcache/internal/sim"
	"hbcache/internal/workload"
)

// The traced run's layer probes. Each times calls into one layer's
// public functions, fed with the workload's own inputs (the configs and
// results its traced phase produced), inside a span of that layer, and
// stops at its time budget or when the inputs run out.

// probeEnv is what the probes read.
type probeEnv struct {
	e      *env
	tr     *tracer
	inputs []sim.Config // local trace refs
	pts    []point
	trace  *recordedTrace // the workload's trace, or one recorded for the probes
	run    runnerStats
	m      *metricSet
}

// budgeted calls f for each index until the budget is spent or n runs
// out, reporting how many calls ran.
func budgeted(budget time.Duration, n int, f func(i int) error) (int, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if i > 0 && time.Since(start) > budget {
			return i, nil
		}
		if err := f(i); err != nil {
			return i, err
		}
	}
	return n, nil
}

// source opens cfg's instruction stream the way the simulator does.
func source(cfg sim.Config) (workload.Source, error) {
	if cfg.Trace != nil {
		t, err := workload.OpenTraceFile(cfg.Trace.Path)
		if err != nil {
			return nil, err
		}
		return t.NewReader(), nil
	}
	return workload.New(cfg.Benchmark, cfg.Seed)
}

// addrStream returns up to n memory reference addresses of cfg's stream.
func addrStream(cfg sim.Config, n int) ([]uint64, error) {
	src, err := source(cfg)
	if err != nil {
		return nil, err
	}
	var addrs, br [4096]uint64
	out := make([]uint64, 0, n)
	insts := cfg.PrewarmInsts + cfg.WarmupInsts + cfg.MeasureInsts
	for left := insts; left > 0 && len(out) < n; {
		c := min(uint64(len(addrs)), left)
		left -= c
		na, _ := src.Warm(int(c), addrs[:], br[:])
		out = append(out, addrs[:na]...)
	}
	return out[:min(len(out), n)], nil
}

// distinct keeps the first input per key, in input order.
func distinct(cfgs []sim.Config, key func(sim.Config) string) []sim.Config {
	seen := map[string]bool{}
	var out []sim.Config
	for _, c := range cfgs {
		k := key(c)
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

func jsonKey(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// everyNth samples every n-th input.
func everyNth(cfgs []sim.Config, n int) []sim.Config {
	var out []sim.Config
	for i := 0; i < len(cfgs); i += n {
		out = append(out, cfgs[i])
	}
	return out
}

func (p *probeEnv) probeWorkload(root *span) error {
	streams := distinct(p.inputs, func(c sim.Config) string {
		if c.Trace != nil {
			return "trace"
		}
		return jsonKey([]any{c.Benchmark, c.Seed, c.PrewarmInsts, c.WarmupInsts, c.MeasureInsts})
	})
	var insts uint64
	var busy time.Duration
	var addrs, br [4096]uint64
	buf := make([]isa.Inst, 4096)
	_, err := budgeted(time.Second, len(streams), func(i int) error {
		c := streams[i]
		if c.Trace != nil {
			return nil
		}
		sp := p.tr.begin(root, "workload", "Generator.Warm+Fill "+c.Benchmark)
		t := time.Now()
		g, err := workload.New(c.Benchmark, c.Seed)
		if err != nil {
			return err
		}
		for left := c.PrewarmInsts; left > 0; {
			n := min(uint64(len(addrs)), left)
			left -= n
			g.Warm(int(n), addrs[:], br[:])
		}
		for left := c.WarmupInsts + c.MeasureInsts; left > 0; {
			n := min(uint64(len(buf)), left)
			left -= n
			g.Fill(buf[:n])
		}
		busy += time.Since(t)
		sp.end()
		insts += c.PrewarmInsts + c.WarmupInsts + c.MeasureInsts
		return nil
	})
	if err != nil {
		return err
	}
	p.m.put("workload.gen_ns_per_inst", "ns", ratio(float64(busy), float64(insts)))
	p.m.put("workload.insts", "count", float64(insts))

	tr, err := workload.OpenTrace(p.trace.data)
	if err != nil {
		return err
	}
	var replayed uint64
	busy = 0
	_, err = budgeted(500*time.Millisecond, 1000, func(int) error {
		sp := p.tr.begin(root, "workload", "TraceReader.Fill")
		t := time.Now()
		rd := tr.NewReader()
		for left := rd.Len(); left > 0; {
			n := min(uint64(len(buf)), left)
			left -= n
			rd.Fill(buf[:n])
		}
		busy += time.Since(t)
		sp.end()
		replayed += rd.Len()
		return nil
	})
	p.m.put("workload.trace_ns_per_inst", "ns", ratio(float64(busy), float64(replayed)))
	return err
}

// probeRefs is how many references each memory probe replays.
const probeRefs = 200_000

func (p *probeEnv) probeMem(root *span) error {
	streams := map[string][]uint64{}
	stream := func(c sim.Config) ([]uint64, error) {
		k := jsonKey([]any{c.Benchmark, c.Seed, c.Trace})
		if s, ok := streams[k]; ok {
			return s, nil
		}
		s, err := addrStream(c, probeRefs)
		streams[k] = s
		return s, err
	}

	geoms := distinct(p.inputs, func(c sim.Config) string {
		return jsonKey([]int{c.Memory.L1.Bytes, c.Memory.L1.LineBytes, c.Memory.L1.Assoc})
	})
	var lookups, hits uint64
	var busy time.Duration
	_, err := budgeted(time.Second, len(geoms), func(i int) error {
		c := geoms[i]
		addrs, err := stream(c)
		if err != nil {
			return err
		}
		a, err := mem.NewArray(c.Memory.L1.Bytes, c.Memory.L1.LineBytes, c.Memory.L1.Assoc)
		if err != nil {
			return err
		}
		sp := p.tr.begin(root, "mem", fmt.Sprintf("Array.Lookup %dB", c.Memory.L1.Bytes))
		t := time.Now()
		for _, ad := range addrs {
			if a.Lookup(ad) {
				hits++
			} else {
				a.Fill(ad)
			}
		}
		busy += time.Since(t)
		sp.end()
		lookups += uint64(len(addrs))
		return nil
	})
	if err != nil {
		return err
	}
	p.m.put("mem.probe_ns", "ns", ratio(float64(busy), float64(lookups)))
	p.m.put("mem.probe_hit_ratio", "ratio", ratio(float64(hits), float64(lookups)))

	systems := distinct(p.inputs, func(c sim.Config) string { return mem.WarmStateKey(c.Memory) })
	var refs uint64
	busy = 0
	_, err = budgeted(500*time.Millisecond, len(systems), func(i int) error {
		c := systems[i]
		addrs, err := stream(c)
		if err != nil {
			return err
		}
		sys, err := mem.NewSystem(c.Memory)
		if err != nil {
			return err
		}
		sp := p.tr.begin(root, "mem", "System.WarmTouch")
		t := time.Now()
		for _, ad := range addrs {
			sys.WarmTouch(ad)
		}
		busy += time.Since(t)
		sp.end()
		refs += uint64(len(addrs))
		return nil
	})
	if err != nil {
		return err
	}
	p.m.put("mem.warm_ns_per_ref", "ns", ratio(float64(busy), float64(refs)))

	// TryLoad at each port organization: the first half of the stream
	// warms the arrays, the second is issued up to four loads a cycle,
	// a refused load retrying on the next cycle.
	orgs := distinct(p.inputs, func(c sim.Config) string {
		return jsonKey([]any{c.Memory.L1.Ports, c.Memory.L1.LineBuffer})
	})
	var attempts, grants uint64
	busy = 0
	_, err = budgeted(500*time.Millisecond, len(orgs), func(i int) error {
		c := orgs[i]
		addrs, err := stream(c)
		if err != nil {
			return err
		}
		sys, err := mem.NewSystem(c.Memory)
		if err != nil {
			return err
		}
		half := len(addrs) / 2
		for _, ad := range addrs[:half] {
			sys.WarmTouch(ad)
		}
		sp := p.tr.begin(root, "mem", fmt.Sprintf("L1Cache.TryLoad %s", jsonKey(c.Memory.L1.Ports)))
		t := time.Now()
		now, granted := mem.Cycle(1), 0
		for _, ad := range addrs[half:] {
			for {
				attempts++
				if _, ok := sys.L1.TryLoad(now, ad); ok {
					grants++
					if granted++; granted == 4 {
						now, granted = now+1, 0
					}
					break
				}
				now, granted = now+1, 0
			}
		}
		busy += time.Since(t)
		sp.end()
		return nil
	})
	p.m.put("mem.l1_load_ns", "ns", ratio(float64(busy), float64(attempts)))
	p.m.put("mem.l1_grant_ratio", "ratio", ratio(float64(grants), float64(attempts)))
	return err
}

func (p *probeEnv) probeCPU(root *span) error {
	var cycles, retired uint64
	var busy time.Duration
	var ipcs []float64
	sample := everyNth(p.inputs, 8)
	_, err := budgeted(1500*time.Millisecond, len(sample), func(i int) error {
		c := sample[i]
		src, err := source(c)
		if err != nil {
			return err
		}
		sys, err := mem.NewSystem(c.Memory)
		if err != nil {
			return err
		}
		core, err := cpu.New(c.CPU, src, sys.L1)
		if err != nil {
			return err
		}
		target := c.WarmupInsts + c.MeasureInsts
		sp := p.tr.begin(root, "cpu", "CPU.Step "+c.Benchmark)
		t := time.Now()
		for core.Stats().Retired < target && !core.Done() {
			core.Step()
		}
		busy += time.Since(t)
		sp.end()
		s := core.Stats()
		cycles += s.Cycles
		retired += s.Retired
		ipcs = append(ipcs, ratio(float64(s.Retired), float64(s.Cycles)))
		return nil
	})
	p.m.put("cpu.ns_per_cycle", "ns", ratio(float64(busy), float64(cycles)))
	p.m.put("cpu.ns_per_inst", "ns", ratio(float64(busy), float64(retired)))
	p.m.put("cpu.ipc", "inst/cycle", mean(ipcs))
	return err
}

func (p *probeEnv) probeSim(ctx context.Context, root *span) error {
	var runMs, shares []float64
	var insts float64
	var busy time.Duration
	sample := everyNth(p.inputs, 8)
	_, err := budgeted(2*time.Second, len(sample), func(i int) error {
		c := sample[i]
		sp := p.tr.begin(root, "sim", "RunContext "+c.Benchmark)
		t := time.Now()
		_, err := sim.RunContext(ctx, c, sim.RunOpts{})
		full := time.Since(t)
		sp.end()
		if err != nil {
			return err
		}
		// The smallest windows Validate accepts leave the region sweep
		// and the prewarm: the run's cost before its first timed cycle.
		pw := c
		pw.WarmupInsts, pw.MeasureInsts = 1, 1
		sp = p.tr.begin(root, "sim", "RunContext prewarm-only "+c.Benchmark)
		t = time.Now()
		_, err = sim.RunContext(ctx, pw, sim.RunOpts{})
		pre := time.Since(t)
		sp.end()
		if err != nil {
			return err
		}
		busy += full
		runMs = append(runMs, ms(full))
		shares = append(shares, ratio(float64(pre), float64(full)))
		insts += float64(c.PrewarmInsts + c.WarmupInsts + c.MeasureInsts)
		return nil
	})
	if err != nil {
		return err
	}
	p.m.put("sim.run_ms", "ms", mean(runMs))
	p.m.put("sim.prewarm_share", "ratio", mean(shares))
	p.m.put("sim.minsts_per_s", "Minst/s", insts/busy.Seconds()/1e6)

	var lanes int
	busy = 0
	groups := (len(p.inputs) + 15) / 16
	_, err = budgeted(2*time.Second, groups, func(i int) error {
		g := p.inputs[i*16 : min((i+1)*16, len(p.inputs))]
		sp := p.tr.begin(root, "sim", fmt.Sprintf("RunBatch %d lanes", len(g)))
		t := time.Now()
		_, errs := sim.RunBatch(ctx, g, sim.RunOpts{})
		busy += time.Since(t)
		sp.end()
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		lanes += len(g)
		return nil
	})
	p.m.put("sim.batch_lane_ms", "ms", ratio(ms(busy), float64(lanes)))
	return err
}

func (p *probeEnv) probeRunner(root *span) error {
	var keys int
	sp := p.tr.begin(root, "runner", "Key")
	t := time.Now()
	for time.Since(t) < 200*time.Millisecond {
		for _, c := range p.inputs {
			if _, err := runner.Key(c); err != nil {
				return err
			}
		}
		keys += len(p.inputs)
	}
	p.m.put("runner.key_us", "us", ratio(float64(time.Since(t).Microseconds()), float64(keys)))
	sp.end()
	p.m.put("runner.overhead_share", "ratio", p.run.overhead)
	p.m.put("runner.simulated", "count", p.run.simulated)
	p.m.put("runner.memo_hits", "count", p.run.memo)
	p.m.put("runner.cache_hits", "count", p.run.cache)

	dir := filepath.Join(p.e.tmp, "cache-probe")
	c, err := runner.NewCache(dir)
	if err != nil {
		return err
	}
	var puts, gets time.Duration
	var bytes int64
	n, err := budgeted(500*time.Millisecond, len(p.pts), func(i int) error {
		pt := p.pts[i]
		k, err := runner.Key(pt.cfg)
		if err != nil {
			return err
		}
		sp := p.tr.begin(root, "runner", "Cache.Put")
		t := time.Now()
		err = c.Put(k, pt.cfg, pt.res)
		puts += time.Since(t)
		sp.end()
		if err != nil {
			return err
		}
		sp = p.tr.begin(root, "runner", "Cache.Get")
		t = time.Now()
		_, ok := c.Get(k)
		gets += time.Since(t)
		sp.end()
		if !ok {
			return fmt.Errorf("cache probe: entry %.12s… not found after Put", k)
		}
		fi, err := os.Stat(filepath.Join(dir, k[:2], k+".json"))
		if err != nil {
			return err
		}
		bytes += fi.Size()
		return nil
	})
	p.m.put("runner.cache_put_us", "us", ratio(float64(puts.Microseconds()), float64(n)))
	p.m.put("runner.cache_get_us", "us", ratio(float64(gets.Microseconds()), float64(n)))
	p.m.put("runner.cache_bytes_per_entry", "B", ratio(float64(bytes), float64(n)))
	return err
}

// submitted strips a config's trace path: servers resolve by digest.
func submitted(c sim.Config) sim.Config {
	if c.Trace != nil {
		c.Trace = &sim.TraceRef{Digest: c.Trace.Digest}
	}
	return c
}

func (p *probeEnv) probeService(ctx context.Context, root *span) error {
	dir, err := os.MkdirTemp(p.e.tmp, "service-probe-")
	if err != nil {
		return err
	}
	srv, err := startServer(ctx, p.e.bin, p.e.tmp, "-addr", "127.0.0.1:0", "-role", "single", "-j", "2",
		"-cache-dir", filepath.Join(dir, "cache"), "-trace-dir", filepath.Join(dir, "traces"))
	if err != nil {
		return err
	}
	defer srv.stop()
	c := newClient()
	defer c.close()
	if _, err := c.uploadTrace(ctx, srv.base, p.trace.data); err != nil {
		return err
	}
	// Every fourth request repeats the one before it: service dedup.
	var reqs []sim.Config
	for i, in := range p.inputs[:min(len(p.inputs), 48)] {
		reqs = append(reqs, submitted(in))
		if i%3 == 2 {
			reqs = append(reqs, submitted(in))
		}
	}
	var (
		mu                 sync.Mutex
		submit, wait, sims []float64
		firstErr           error
		next               int
	)
	deadline := time.Now().Add(2500 * time.Millisecond)
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(reqs) || time.Now().After(deadline) {
					return
				}
				o := runJob(ctx, c, srv.base, reqs[i], p.tr, root, nil)
				mu.Lock()
				switch {
				case firstErr != nil:
				case o.err != nil:
					firstErr = o.err
				case o.view.State != service.StateDone:
					firstErr = fmt.Errorf("service probe job %s: %s", o.view.State, o.view.Error)
				default:
					submit = append(submit, ms(o.submit))
					wait = append(wait, ms(o.lat)-float64(o.view.WallNs)/1e6)
					sims = append(sims, float64(o.view.WallNs)/1e6)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	p.m.put("service.submit_ms_p50", "ms", quantile(submit, 0.5))
	p.m.put("service.submit_ms_p99", "ms", quantile(submit, 0.99))
	p.m.put("service.wait_ms_p50", "ms", quantile(wait, 0.5))
	p.m.put("service.wait_ms_p99", "ms", quantile(wait, 0.99))
	p.m.put("service.sim_ms_p50", "ms", quantile(sims, 0.5))
	m, err := c.scrape(ctx, srv.base, "hbserved_jobs_deduped_total", "hbserved_jobs_rejected_total")
	if err != nil {
		return err
	}
	p.m.put("service.deduped", "count", m["hbserved_jobs_deduped_total"])
	p.m.put("service.rejected", "count", m["hbserved_jobs_rejected_total"])
	return srv.stop()
}

func (p *probeEnv) probeCluster(ctx context.Context, root *span) error {
	dir, err := os.MkdirTemp(p.e.tmp, "cluster-probe-")
	if err != nil {
		return err
	}
	f, err := startFleet(ctx, p.e.bin, dir, 2)
	if err != nil {
		return err
	}
	defer f.stop()
	c := newClient()
	defer c.close()
	base := f.coord.base

	sp := p.tr.begin(root, "cluster", "POST /v1/traces")
	t := time.Now()
	digest, err := c.uploadTrace(ctx, base, p.trace.data)
	p.m.put("cluster.trace_upload_ms", "ms", ms(time.Since(t)))
	sp.end()
	if err != nil {
		return err
	}
	var fetches []float64
	for i := 0; i < 5; i++ {
		sp := p.tr.begin(root, "cluster", "GET /v1/traces/{digest}")
		t := time.Now()
		_, err := c.do(ctx, http.MethodGet, base+"/v1/traces/"+digest, nil, nil)
		fetches = append(fetches, ms(time.Since(t)))
		sp.end()
		if err != nil {
			return err
		}
	}
	p.m.put("cluster.trace_fetch_ms", "ms", median(fetches))

	// Dispatch round trip: a direct POST /v1/jobs to a worker, the
	// request the coordinator makes for every point.
	direct := p.inputs[:min(len(p.inputs), 8)]
	var rtts []float64
	var ids []string
	for _, in := range direct {
		sp := p.tr.begin(root, "cluster", "worker POST /v1/jobs")
		t := time.Now()
		view, _, err := c.submitJob(ctx, f.workers[0].base, submitted(in))
		rtts = append(rtts, ms(time.Since(t)))
		sp.end()
		if err != nil {
			return err
		}
		ids = append(ids, view.ID)
	}
	for _, id := range ids {
		if err := c.awaitJob(ctx, f.workers[0].base, id); err != nil {
			return err
		}
	}
	p.m.put("cluster.dispatch_rtt_ms", "ms", median(rtts))

	// A sweep over inputs the direct dispatches did not touch.
	rest := p.inputs[len(direct):]
	rest = rest[:min(len(rest), 32)]
	if len(rest) == 0 {
		rest = direct
	}
	cfgs := make([]sim.Config, len(rest))
	for i, in := range rest {
		cfgs[i] = submitted(in)
	}
	sumSim := func() (float64, error) {
		var s float64
		for _, w := range f.workers {
			m, err := c.scrape(ctx, w.base, "hbserved_runner_sim_seconds_total")
			if err != nil {
				return 0, err
			}
			s += m["hbserved_runner_sim_seconds_total"]
		}
		return s, nil
	}
	before, err := sumSim()
	if err != nil {
		return err
	}
	t = time.Now()
	if _, err := runSweep(ctx, c, base, cfgs, p.tr, root, nil); err != nil {
		return err
	}
	wall := time.Since(t)
	after, err := sumSim()
	if err != nil {
		return err
	}
	p.m.put("cluster.overhead_share", "ratio", 1-(after-before)/(float64(len(f.workers))*wall.Seconds()))
	m, err := c.scrape(ctx, base, "hbserved_worker_dispatched_total", "hbserved_worker_stolen_total", "hbserved_worker_failed_total")
	if err != nil {
		return err
	}
	p.m.put("cluster.dispatched", "count", m["hbserved_worker_dispatched_total"])
	p.m.put("cluster.stolen", "count", m["hbserved_worker_stolen_total"])
	p.m.put("cluster.failed", "count", m["hbserved_worker_failed_total"])

	rs := runner.NewRemoteStore(base, nil, nil)
	var puts, gets []float64
	_, err = budgeted(500*time.Millisecond, min(len(p.pts), 64), func(i int) error {
		pt := p.pts[i]
		k, err := runner.Key(pt.cfg)
		if err != nil {
			return err
		}
		sp := p.tr.begin(root, "cluster", "RemoteStore.Put")
		t := time.Now()
		err = rs.Put(k, pt.cfg, pt.res)
		puts = append(puts, ms(time.Since(t)))
		sp.end()
		if err != nil {
			return err
		}
		sp = p.tr.begin(root, "cluster", "RemoteStore.Get")
		t = time.Now()
		_, ok := rs.Get(k)
		gets = append(gets, ms(time.Since(t)))
		sp.end()
		if !ok {
			return fmt.Errorf("remote store probe: %.12s… not found after Put", k)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.m.put("cluster.store_put_ms", "ms", median(puts))
	p.m.put("cluster.store_get_ms", "ms", median(gets))

	j, err := cluster.OpenJournal(filepath.Join(dir, "journal-probe"), nil)
	if err != nil {
		return err
	}
	var appends time.Duration
	n, err := budgeted(500*time.Millisecond, len(p.pts), func(i int) error {
		k, err := runner.Key(p.pts[i].cfg)
		if err != nil {
			return err
		}
		sp := p.tr.begin(root, "cluster", "Journal.Append")
		t := time.Now()
		err = j.Append(cluster.Record{Type: cluster.RecordResult, Key: k})
		appends += time.Since(t)
		sp.end()
		return err
	})
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	p.m.put("cluster.journal_append_us", "us", ratio(float64(appends.Microseconds()), float64(n)))
	if err != nil {
		return err
	}
	return f.stop()
}

// runProbes runs every layer probe in order, each under a root span
// named for its layer.
func runProbes(ctx context.Context, p *probeEnv) error {
	steps := []struct {
		layer string
		run   func(*span) error
	}{
		{"workload", p.probeWorkload},
		{"mem", p.probeMem},
		{"cpu", p.probeCPU},
		{"sim", func(s *span) error { return p.probeSim(ctx, s) }},
		{"runner", p.probeRunner},
		{"service", func(s *span) error { return p.probeService(ctx, s) }},
		{"cluster", func(s *span) error { return p.probeCluster(ctx, s) }},
	}
	for _, st := range steps {
		root := p.tr.begin(nil, "client", "probe "+st.layer)
		err := st.run(root)
		root.end()
		if err != nil {
			return fmt.Errorf("%s probe: %w", st.layer, err)
		}
	}
	return nil
}
