package service

import (
	"net/http"

	"hbcache/internal/sim"
	"hbcache/internal/stats"
	"hbcache/internal/workload"
)

// handleMetrics renders the operational metrics catalogue in Prometheus
// text exposition format: queue pressure, in-flight work, dedup and
// cache effectiveness, throughput, and the job latency histogram.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rm := s.run.Metrics()

	s.mu.Lock()
	var p stats.Prom
	p.Gauge("hbserved_queue_depth", "Accepted jobs waiting for a worker.", float64(len(s.queue)))
	p.Gauge("hbserved_queue_capacity", "Bound of the job queue.", float64(cap(s.queue)))
	p.Gauge("hbserved_inflight_sims", "Jobs currently executing.", float64(s.running))
	draining := 0.0
	if s.draining {
		draining = 1
	}
	p.Gauge("hbserved_draining", "1 while shutdown is draining jobs.", draining)
	brState, brOpens := s.breaker.State()
	p.Gauge("hbserved_breaker_state", "Circuit breaker position: 0 closed, 1 open, 2 half-open.", float64(brState))
	p.Counter("hbserved_breaker_opens_total", "Times the circuit breaker tripped open.", float64(brOpens))
	p.Counter("hbserved_sse_dropped_total", "SSE subscribers dropped for not draining events within the write timeout.", float64(s.sseDropped))
	p.Counter("hbserved_sweeps_truncated_total", "Sweeps that completed with at least one deadline-truncated member.", float64(s.truncatedSweeps))

	p.Counter("hbserved_jobs_submitted_total", "Jobs accepted into the queue.", float64(s.submitted))
	p.Counter("hbserved_jobs_deduped_total", "Submissions answered by an existing identical job.", float64(s.deduped))
	p.Counter("hbserved_jobs_rejected_total", "Submissions refused with 429 because the queue was full.", float64(s.rejected))
	p.Counter("hbserved_jobs_done_total", "Jobs finished successfully.", float64(s.doneJobs))
	p.Counter("hbserved_jobs_failed_total", "Jobs finished with an error.", float64(s.failedJobs))
	p.Counter("hbserved_jobs_resumed_total", "Truncated jobs re-enqueued via the resume endpoint.", float64(s.resumedJobs))

	p.Counter("hbserved_runner_done_total", "Runner jobs completed by any path.", float64(rm.Done))
	p.Counter("hbserved_runner_simulated_total", "Runner jobs that ran the simulator.", float64(rm.Simulated))
	p.Counter("hbserved_runner_cache_hits_total", "Runner jobs served from the on-disk result cache.", float64(rm.CacheHits))
	p.Counter("hbserved_runner_memo_hits_total", "Runner jobs deduplicated in-process.", float64(rm.MemoHits))
	p.Counter("hbserved_runner_errors_total", "Runner jobs whose final attempt failed.", float64(rm.Errors))
	p.Counter("hbserved_runner_retries_total", "Extra attempts consumed by failing runner jobs.", float64(rm.Retries))
	p.Counter("hbserved_runner_store_write_errors_total", "Finished results the result store refused (full disk, unreachable coordinator); each is re-simulated when next asked for.", float64(rm.StoreWriteErrors))
	p.Counter("hbserved_cache_corrupt_entries_total", "On-disk cache entries that failed their integrity check and were quarantined.", float64(rm.CorruptEntries))
	p.Counter("hbserved_snapshot_quarantined_total", "Checkpoint files that failed verification and were quarantined to *.corrupt (process-wide).", float64(sim.SnapshotsQuarantined()))
	p.Counter("hbserved_traces_quarantined_total", "Trace files that failed verification and were quarantined to *.corrupt (process-wide).", float64(workload.TracesQuarantined()))
	p.Counter("hbserved_runner_prewarm_hits_total", "Simulations that used a shared prewarm prefix instead of generating it.", float64(rm.PrewarmHits))
	p.Counter("hbserved_runner_prewarm_misses_total", "Simulations in a shared stream group that generated their prewarm prefix.", float64(rm.PrewarmMisses))
	p.Counter("hbserved_runner_prewarm_warm_fills_total", "Finished prewarms captured for later runs of the same stream and cache geometry.", float64(rm.PrewarmWarmFills))
	p.Counter("hbserved_runner_prewarm_warm_applies_total", "Simulations that applied a captured prewarm instead of sweeping and replaying.", float64(rm.PrewarmWarmApplies))
	p.Counter("hbserved_runner_prewarm_tape_fills_total", "Stream tapes recorded for later runs of the same stream.", float64(rm.PrewarmTapeFills))
	p.Counter("hbserved_runner_prewarm_tape_reads_total", "Simulations whose timed window was read from a stream tape instead of generated.", float64(rm.PrewarmTapeReads))
	p.Counter("hbserved_runner_sim_seconds_total", "Cumulative wall time inside the simulator.", rm.SimWall.Seconds())
	p.Gauge("hbserved_cache_hit_ratio", "Fraction of completed runner jobs served without simulating (disk cache + memo).",
		stats.Ratio(uint64(rm.CacheHits+rm.MemoHits), uint64(rm.Done)))
	p.Gauge("hbserved_sims_per_second", "Completed runner jobs per second of runner lifetime.", rm.Rate())

	p.Histogram("hbserved_job_latency_seconds", "Wall time from job dispatch to completion (cache hits included).", s.latency)

	if s.storeSrv != nil {
		st := s.storeSrv.Stats()
		p.Counter("hbserved_store_gets_total", "Result-store GETs served over HTTP.", float64(st.Gets))
		p.Counter("hbserved_store_hits_total", "Result-store GETs answered with an entry.", float64(st.Hits))
		p.Counter("hbserved_store_puts_total", "Result-store entries accepted over HTTP.", float64(st.Puts))
		p.Counter("hbserved_store_rejects_total", "Result-store uploads rejected for failing verification.", float64(st.Rejects))
	}

	ts := s.TraceStats()
	p.Gauge("hbserved_traces_stored", "Recorded workload traces in the content-addressed store.", float64(ts.Stored))
	p.Counter("hbserved_trace_uploads_total", "Trace uploads that stored a new digest.", float64(ts.Uploads))
	p.Counter("hbserved_trace_dedup_total", "Trace uploads answered by an already-stored digest.", float64(ts.Dedups))
	p.Counter("hbserved_trace_fetches_served_total", "Stored traces served to downloaders (cluster workers).", float64(ts.Served))
	p.Counter("hbserved_trace_fetches_total", "Traces this node pulled from its upstream fetch URL.", float64(ts.Fetched))

	if s.opts.ClusterStatus != nil {
		// The hook answers from local membership state — /metrics never
		// touches the network.
		if cs := s.opts.ClusterStatus(r.Context()); cs != nil {
			s.workerMetrics(&p, cs)
		}
	}
	body := p.String()
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(body))
}

// workerMetrics renders the coordinator's per-worker families, one
// labeled sample per fleet member.
func (s *Service) workerMetrics(p *stats.Prom, cs *ClusterStatus) {
	vec := func(f func(WorkerStatus) float64) []stats.Sample {
		out := make([]stats.Sample, 0, len(cs.Workers))
		for _, w := range cs.Workers {
			out = append(out, stats.Sample{Labels: map[string]string{"worker": w.URL}, Value: f(w)})
		}
		return out
	}
	breakerNum := func(state string) float64 {
		switch state {
		case "open":
			return 1
		case "half-open":
			return 2
		default:
			return 0
		}
	}
	p.Gauge("hbserved_cluster_workers", "Size of the worker fleet.", float64(cs.Total))
	p.Gauge("hbserved_cluster_live_workers", "Dispatchable workers (active membership, breaker not open).", float64(cs.Live))
	p.Gauge("hbserved_cluster_workers_registered", "Live workers holding a heartbeat lease.", float64(cs.Registered))
	p.Counter("hbserved_cluster_lease_expiries_total", "Worker heartbeat leases the coordinator has reaped.", float64(cs.LeaseExpiries))
	p.Counter("hbserved_cluster_journal_replays_total", "Sweep-journal replays performed by this coordinator process.", float64(cs.JournalReplays))
	p.GaugeVec("hbserved_worker_up", "1 while the worker's breaker is routing work to it.", vec(func(w WorkerStatus) float64 {
		if w.Healthy {
			return 1
		}
		return 0
	}))
	p.GaugeVec("hbserved_worker_inflight", "Points currently dispatched to the worker.", vec(func(w WorkerStatus) float64 {
		return float64(w.Inflight)
	}))
	p.GaugeVec("hbserved_worker_breaker_state", "Worker breaker position: 0 closed, 1 open, 2 half-open.", vec(func(w WorkerStatus) float64 {
		return breakerNum(w.Breaker)
	}))
	p.GaugeVec("hbserved_worker_lease_age_seconds", "Seconds since the worker's last heartbeat; -1 when it holds no lease.", vec(func(w WorkerStatus) float64 {
		if w.LeaseAgeMs < 0 {
			return -1
		}
		return float64(w.LeaseAgeMs) / 1000
	}))
	p.CounterVec("hbserved_worker_dispatched_total", "Points handed to the worker.", vec(func(w WorkerStatus) float64 {
		return float64(w.Dispatched)
	}))
	p.CounterVec("hbserved_worker_completed_total", "Points the worker returned results for.", vec(func(w WorkerStatus) float64 {
		return float64(w.Completed)
	}))
	p.CounterVec("hbserved_worker_failed_total", "Dispatch-level failures (transport, protocol) against the worker.", vec(func(w WorkerStatus) float64 {
		return float64(w.Failed)
	}))
	p.CounterVec("hbserved_worker_breaker_opens_total", "Times the worker's breaker tripped open.", vec(func(w WorkerStatus) float64 {
		return float64(w.BreakerOpens)
	}))
}
