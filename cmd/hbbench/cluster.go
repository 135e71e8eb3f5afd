package main

import (
	"context"
	"fmt"
	"os"
	"time"
)

// clusterSweepPoints is the size of one cluster-sweep sweep at scale 1.
const clusterSweepPoints = 256

// clusterBench is cluster-sweep: a coordinator over two single-simulator
// workers, all real processes, fed one sweep at a time by one client.
type clusterBench struct {
	e     *env
	dir   string
	trace *recordedTrace
	f     *fleet
	c     *client
	next  int // sweeps submitted so far, across epochs
}

func (b *clusterBench) setup(ctx context.Context, _ int) error {
	var err error
	b.c = newClient()
	if b.dir, err = os.MkdirTemp(b.e.tmp, "cluster-"); err != nil {
		return err
	}
	if b.trace, err = recordTrace(b.dir, b.e.seed, clusterWindows.scaled(b.e.scale)); err != nil {
		return err
	}
	if b.f, err = startFleet(ctx, b.e.bin, b.dir, 2); err != nil {
		return err
	}
	_, err = b.c.uploadTrace(ctx, b.f.coord.base, b.trace.data)
	return err
}

func (b *clusterBench) finish() (time.Duration, float64, error) {
	if b.c != nil {
		b.c.close()
	}
	if b.f == nil {
		return 0, 0, nil
	}
	err := b.f.stop()
	cpu, rss := b.f.usage()
	return cpu, rss, err
}

// workerStats scrapes and sums the workers' runner counters.
func (b *clusterBench) workerStats(ctx context.Context) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, w := range b.f.workers {
		m, err := b.c.scrape(ctx, w.base, runnerFamilies...)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

func (b *clusterBench) phase(ctx context.Context, epoch int, tr *tracer) (*phaseResult, error) {
	n := scaledCount(clusterSweepPoints, b.e.scale)
	w := clusterWindows.scaled(b.e.scale)
	before, err := b.workerStats(ctx)
	if err != nil {
		return nil, err
	}
	pr := &phaseResult{}
	wall, err := passLoop(b.e.seconds, func(i int) error {
		cfgs := clusterSweep(b.e.seed, b.next, n, w, b.trace.ref)
		b.next++
		submit := time.Now()
		res, err := runSweep(ctx, b.c, b.f.coord.base, cfgs, tr, nil, func(t time.Time) {
			pr.latMs = append(pr.latMs, ms(t.Sub(submit)))
		})
		pr.attempted += n
		if err != nil {
			pr.failed += n
			return err
		}
		var pts []point
		for j, p := range res.Points {
			if p.Result == nil {
				pr.failed++
				fmt.Fprintf(b.e.log, "hbbench: cluster-sweep point %d: %s %s\n", j, p.State, p.Error)
				continue
			}
			pr.points++
			pts = append(pts, point{localRef(cfgs[j], b.trace.path), *p.Result})
		}
		pr.pts = append(pr.pts, pts...)
		if i == 0 {
			for _, p := range pts {
				pr.inputs = append(pr.inputs, p.cfg)
			}
			if epoch == 0 {
				pr.goldenPts = pts
			}
		}
		return nil
	})
	pr.wall = wall
	if err != nil {
		return pr, err
	}
	after, err := b.workerStats(ctx)
	if err != nil {
		return pr, err
	}
	pr.run = serverRunnerStats(before, after, wall, len(b.f.workers))
	return pr, nil
}
