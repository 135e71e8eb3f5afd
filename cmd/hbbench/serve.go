package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hbcache/internal/service"
	"hbcache/internal/sim"
	"hbcache/internal/workload"
)

// serveJobs is how many jobs one serve-mixed phase may run at scale 1.
// The phase ends at its seconds or after this many jobs, whichever is
// first; setup seeds the disk store for the cached share of all of
// them, so the bound keeps setup from seeding jobs no phase reaches.
const serveJobs = 2400

// recordedTrace is a trace the benchmark recorded and keeps on disk.
type recordedTrace struct {
	path string
	data []byte
	ref  sim.TraceRef // digest only: what clients submit
}

// recordTrace records the stream of traceSource(seed) for windows w.
func recordTrace(dir string, seed uint64, w windows) (*recordedTrace, error) {
	bench, tseed := traceSource(seed)
	data, err := sim.RecordTrace(baseConfig(bench, tseed, sim.ScaledSRAMSystem(32<<10, 1, duplicate, true, cycleFO4), w), 0)
	if err != nil {
		return nil, err
	}
	tr, err := workload.OpenTrace(data)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, tr.Digest()+".trace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	return &recordedTrace{path: path, data: data, ref: sim.TraceRef{Digest: tr.Digest()}}, nil
}

// serveBench is serve-mixed: one hbserved driven closed-loop by two
// clients with zero think time.
type serveBench struct {
	e      *env
	dir    string
	trace  *recordedTrace
	srv    *server
	jobs   [][]serveJob      // per epoch
	seeded map[string][]byte // config JSON -> seeded result projection
	c      *client
}

func (b *serveBench) setup(ctx context.Context, epochs int) error {
	var err error
	b.c = newClient()
	if b.dir, err = os.MkdirTemp(b.e.tmp, "serve-"); err != nil {
		return err
	}
	w := serveWindows.scaled(b.e.scale)
	if b.trace, err = recordTrace(b.dir, b.e.seed, w); err != nil {
		return err
	}
	var pool []sim.Config
	for ep := 0; ep < epochs; ep++ {
		jobs, p := serveMix(b.e.seed, ep, scaledCount(serveJobs, b.e.scale), w, b.trace.ref)
		b.jobs = append(b.jobs, jobs)
		pool = append(pool, p...)
	}
	cacheDir, traceDir := filepath.Join(b.dir, "cache"), filepath.Join(b.dir, "traces")

	// Seed the cached share through a batching server, then restart on
	// the same directory so those jobs are real store reads.
	seeder, err := startServer(ctx, b.e.bin, b.e.tmp, "-addr", "127.0.0.1:0", "-role", "single", "-j", "2",
		"-batch", "16", "-queue", "65536", "-cache-dir", cacheDir, "-trace-dir", traceDir)
	if err != nil {
		return err
	}
	b.seeded = map[string][]byte{}
	err = b.seed(ctx, seeder.base, pool)
	if serr := seeder.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("seeding the disk store: %w", err)
	}
	if b.srv, err = startServer(ctx, b.e.bin, b.e.tmp, "-addr", "127.0.0.1:0", "-role", "single", "-j", "2",
		"-cache-dir", cacheDir, "-trace-dir", traceDir); err != nil {
		return err
	}
	_, err = b.c.uploadTrace(ctx, b.srv.base, b.trace.data)
	return err
}

// seedChunk keeps each seeding sweep's request body well under the
// service's 1 MiB limit.
const seedChunk = 256

// seed submits the pool as sweeps of seedChunk configs, all queued at
// once so the batching server always has a full batch, then records
// each seeded result for the store-read check.
func (b *serveBench) seed(ctx context.Context, base string, pool []sim.Config) error {
	// Stream order lets the batching server share stream generation
	// and prewarm across each chunk's lanes.
	pool = append([]sim.Config(nil), pool...)
	sort.SliceStable(pool, func(i, j int) bool {
		if pool[i].Benchmark != pool[j].Benchmark {
			return pool[i].Benchmark < pool[j].Benchmark
		}
		return pool[i].Seed < pool[j].Seed
	})
	var ids []string
	for lo := 0; lo < len(pool); lo += seedChunk {
		id, err := submitSweep(ctx, b.c, base, pool[lo:min(lo+seedChunk, len(pool))])
		if err != nil {
			return err
		}
		ids = append(ids, id)
	}
	for n, id := range ids {
		chunk := pool[n*seedChunk : min((n+1)*seedChunk, len(pool))]
		res, err := awaitSweep(ctx, b.c, base, id, len(chunk), nil, nil, nil)
		if err != nil {
			return err
		}
		for i, p := range res.Points {
			if p.Result == nil {
				return fmt.Errorf("seeding point %d: %s", n*seedChunk+i, p.Error)
			}
			k, _ := json.Marshal(chunk[i])
			b.seeded[string(k)] = project(*p.Result)
		}
	}
	return nil
}

func (b *serveBench) finish() (time.Duration, float64, error) {
	if b.c != nil {
		b.c.close()
	}
	if b.srv == nil {
		return 0, 0, nil
	}
	err := b.srv.stop()
	cpu, rss := b.srv.usage()
	return cpu, rss, err
}

// jobOutcome is one finished job as the client saw it.
type jobOutcome struct {
	view        service.JobView
	deduped     bool
	submit, lat time.Duration
	err         error
}

func (b *serveBench) phase(ctx context.Context, epoch int, tr *tracer) (*phaseResult, error) {
	jobs := b.jobs[epoch]
	out := make([]jobOutcome, len(jobs))
	before, err := b.c.scrape(ctx, b.srv.base, runnerFamilies...)
	if err != nil {
		return nil, err
	}
	// A resubmit waits until its original's POST has returned, so it
	// always meets an existing job however the two clients interleave.
	submitted := make([]chan struct{}, len(jobs))
	for i := range submitted {
		submitted[i] = make(chan struct{})
	}
	var next atomic.Int64
	deadline := time.Now().Add(time.Duration(b.e.seconds * float64(time.Second)))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if jobs[i].class == classResubmit {
					<-submitted[jobs[i].of]
				}
				out[i] = runJob(ctx, b.c, b.srv.base, jobs[i].cfg, tr, nil, submitted[i])
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	after, err := b.c.scrape(ctx, b.srv.base, runnerFamilies...)
	if err != nil {
		return nil, err
	}
	n := min(int(next.Load()), len(jobs))

	pr := &phaseResult{wall: wall, run: serverRunnerStats(before, after, wall, 2)}
	golden := scaledCount(200, b.e.scale)
	for i := 0; i < n; i++ {
		j, o := jobs[i], out[i]
		pr.attempted++
		if err := b.check(jobs, out, i); err != nil {
			pr.failed++
			fmt.Fprintf(b.e.log, "hbbench: serve-mixed job %d (%s): %v\n", i, classNames[j.class], err)
			continue
		}
		pr.points++
		pr.latMs = append(pr.latMs, ms(o.lat))
		if j.class == classResubmit {
			continue
		}
		p := point{localRef(j.cfg, b.trace.path), *o.view.Result}
		pr.pts = append(pr.pts, p)
		pr.inputs = append(pr.inputs, p.cfg)
		if epoch == 0 && i < golden {
			pr.goldenPts = append(pr.goldenPts, p)
		}
	}
	if epoch == 0 && n < golden {
		pr.failed++
		fmt.Fprintf(b.e.log, "hbbench: serve-mixed finished %d jobs, fewer than the %d the golden digest covers\n", n, golden)
	}
	return pr, nil
}

// runJob submits one job, waits for it on its SSE stream and fetches
// the final view. Latency runs from submit to the terminal event.
// submitted, when non-nil, is closed once the POST has returned.
func runJob(ctx context.Context, c *client, base string, cfg sim.Config, tr *tracer, parent *span, submitted chan struct{}) jobOutcome {
	var o jobOutcome
	root := tr.begin(parent, "client", "job")
	defer root.end()
	t0 := time.Now()
	sp := tr.begin(root, "service", "POST /v1/jobs")
	view, deduped, err := c.submitJob(ctx, base, cfg)
	o.submit = time.Since(t0)
	sp.end()
	if submitted != nil {
		close(submitted)
	}
	if err != nil {
		o.err = err
		return o
	}
	sp = tr.begin(root, "service", "SSE /v1/jobs/{id}/events")
	err = c.awaitJob(ctx, base, view.ID)
	sp.end()
	o.lat = time.Since(t0)
	if err != nil {
		o.err = err
		return o
	}
	sp = tr.begin(root, "service", "GET /v1/jobs/{id}")
	_, o.err = c.do(ctx, http.MethodGet, base+"/v1/jobs/"+view.ID, nil, &o.view)
	sp.end()
	o.deduped = deduped
	return o
}

// check verifies job i against what its class promises.
func (b *serveBench) check(jobs []serveJob, out []jobOutcome, i int) error {
	j, o := jobs[i], out[i]
	switch {
	case o.err != nil:
		return o.err
	case o.view.State != service.StateDone || o.view.Result == nil:
		return fmt.Errorf("state %s: %s", o.view.State, o.view.Error)
	}
	got := project(*o.view.Result)
	switch j.class {
	case classCached:
		k, _ := json.Marshal(j.cfg)
		if !o.view.CacheHit {
			return fmt.Errorf("seeded config was not served from the disk store")
		}
		if !bytes.Equal(got, b.seeded[string(k)]) {
			return fmt.Errorf("store read %s differs from the seeded result %s", got, b.seeded[string(k)])
		}
	case classResubmit:
		if !o.deduped {
			return fmt.Errorf("resubmitted config was not deduplicated")
		}
		if first := out[j.of]; first.view.Result != nil && !bytes.Equal(got, project(*first.view.Result)) {
			return fmt.Errorf("dedup result %s differs from the original %s", got, project(*first.view.Result))
		}
	default:
		if o.view.CacheHit || o.view.MemoHit || o.deduped {
			return fmt.Errorf("fresh config was answered without simulating")
		}
	}
	return nil
}

// runnerFamilies are the runner counters hbserved exports.
var runnerFamilies = []string{
	"hbserved_runner_simulated_total", "hbserved_runner_memo_hits_total",
	"hbserved_runner_cache_hits_total", "hbserved_runner_sim_seconds_total",
}

// serverRunnerStats derives the runner layer's counts from two scrapes
// taken around a phase of the given wall time on the given simulators.
func serverRunnerStats(before, after map[string]float64, wall time.Duration, sims int) runnerStats {
	d := func(n string) float64 { return after[n] - before[n] }
	return runnerStats{
		simulated: d("hbserved_runner_simulated_total"),
		memo:      d("hbserved_runner_memo_hits_total"),
		cache:     d("hbserved_runner_cache_hits_total"),
		overhead:  1 - d("hbserved_runner_sim_seconds_total")/(wall.Seconds()*float64(sims)),
	}
}

// runSweep submits cfgs as one sweep, follows its SSE stream until
// every point settles (calling onPoint with each member's completion
// time) and fetches the results.
func runSweep(ctx context.Context, c *client, base string, cfgs []sim.Config, tr *tracer, parent *span, onPoint func(time.Time)) (service.SweepResults, error) {
	root := tr.begin(parent, "client", "sweep")
	defer root.end()
	sp := tr.begin(root, "cluster", "POST /v1/sweeps")
	id, err := submitSweep(ctx, c, base, cfgs)
	sp.end()
	if err != nil {
		return service.SweepResults{}, err
	}
	return awaitSweep(ctx, c, base, id, len(cfgs), tr, root, onPoint)
}

// submitSweep posts cfgs as one sweep and returns its ID.
func submitSweep(ctx context.Context, c *client, base string, cfgs []sim.Config) (string, error) {
	body, err := json.Marshal(map[string]any{"configs": cfgs})
	if err != nil {
		return "", err
	}
	var view service.SweepView
	_, err = c.do(ctx, http.MethodPost, base+"/v1/sweeps", body, &view)
	return view.ID, err
}

// awaitSweep follows sweep id's SSE stream until it settles and fetches
// its n results.
func awaitSweep(ctx context.Context, c *client, base, id string, n int, tr *tracer, root *span, onPoint func(time.Time)) (service.SweepResults, error) {
	var res service.SweepResults
	sp := tr.begin(root, "cluster", "SSE /v1/sweeps/{id}/events")
	err := c.events(ctx, base+"/v1/sweeps/"+id+"/events", func(ev service.Event) bool {
		if ev.Type == "progress" && ev.JobID != "" && onPoint != nil {
			onPoint(time.Now())
		}
		return ev.Done+ev.Failed < ev.Total || ev.Total == 0
	})
	sp.end()
	if err != nil {
		return res, err
	}
	sp = tr.begin(root, "cluster", "GET /v1/sweeps/{id}/results")
	_, err = c.do(ctx, http.MethodGet, base+"/v1/sweeps/"+id+"/results", nil, &res)
	sp.end()
	if err != nil {
		return res, err
	}
	if !res.Complete || len(res.Points) != n {
		return res, fmt.Errorf("sweep %s incomplete: %d/%d done, %d failed", id, res.Done, res.Total, res.Failed)
	}
	return res, nil
}
