package service

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"hbcache/internal/retry"
)

// WorkerStatus is one cluster worker's state as readiness and /metrics
// report it. The cluster coordinator fills it directly (the cluster
// package imports this one, never the reverse).
type WorkerStatus struct {
	URL string `json:"url"`
	// Healthy means the worker is dispatchable: active membership with
	// a breaker that is not open.
	Healthy bool `json:"healthy"`
	// State is the membership state: active, draining (deregistered,
	// finishing in-flight work), or expired (lease reaped).
	State string `json:"state"`
	// Permanent marks a seed worker from -workers; Registered one that
	// self-registered and holds a heartbeat lease. LeaseAgeMs is
	// milliseconds since the last heartbeat, -1 when there is no lease.
	Permanent  bool  `json:"permanent"`
	Registered bool  `json:"registered"`
	LeaseAgeMs int64 `json:"lease_age_ms"`
	Inflight   int   `json:"inflight"`
	// Dispatched counts points handed to the worker; Completed those
	// that returned results; Failed dispatch-level failures (transport,
	// protocol — not job-level simulation errors).
	Dispatched   int64  `json:"dispatched"`
	Completed    int64  `json:"completed"`
	Failed       int64  `json:"failed"`
	Breaker      string `json:"breaker"`
	BreakerOpens int64  `json:"breaker_opens"`
}

// ClusterStatus is the coordinator's view of its fleet, computed from
// membership and breaker state — no network round trips.
type ClusterStatus struct {
	Workers []WorkerStatus `json:"workers"`
	// Live counts dispatchable workers (active membership, fresh lease
	// where one applies, breaker not open); Registered the live subset
	// holding heartbeat leases. Reachable aliases Live for continuity
	// with the probe-based field this replaced.
	Live       int `json:"live"`
	Registered int `json:"registered"`
	Reachable  int `json:"reachable"`
	Total      int `json:"total"`
	// MinWorkers is the readiness quorum: /readyz answers 503 while
	// Live < MinWorkers.
	MinWorkers int `json:"min_workers"`
	// LeaseExpiries counts heartbeat leases the coordinator has reaped;
	// JournalReplays counts journal replays this process has performed
	// (0 or 1 today, counted for the metric contract).
	LeaseExpiries  int64 `json:"lease_expiries"`
	JournalReplays int64 `json:"journal_replays"`
}

// ClusterMembership is the coordinator's membership surface, injected
// by the binary so the service can serve the registration endpoints
// without importing the cluster package.
type ClusterMembership interface {
	// Register adds or revives the worker at url, granting a lease;
	// it reports whether the worker is new and the lease TTL.
	Register(url string) (isNew bool, ttl time.Duration)
	// Heartbeat renews url's lease, reporting false if the worker is
	// unknown or no longer live and must re-register.
	Heartbeat(ctx context.Context, url string) bool
	// Deregister removes url from dispatch immediately (graceful drain).
	Deregister(url string)
}

// readiness is the GET /readyz payload.
type readiness struct {
	Ready    bool   `json:"ready"`
	Reason   string `json:"reason,omitempty"`
	Draining bool   `json:"draining"`
	// Queue pressure: accepted jobs waiting, the queue bound, and jobs
	// executing right now.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	Inflight      int `json:"inflight"`
	// Breaker is the service-level circuit breaker position.
	Breaker string `json:"breaker"`
	// Cluster is present only on coordinators.
	Cluster *ClusterStatus `json:"cluster,omitempty"`
}

// handleHealthz is pure liveness: the process is up and serving HTTP.
// It answers 200 even while draining — a draining process is alive and
// must not be restarted by a liveness prober; taking it out of rotation
// is readiness's job (GET /readyz).
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

// handleReadyz is readiness: whether this instance should receive new
// work. Not ready while draining, while the circuit breaker is open,
// or — on a coordinator — while live workers sit below the -min-workers
// quorum. The fleet check is lease- and breaker-based, computed
// entirely from coordinator state: readiness probes fire often enough
// that pinging every worker from here would be its own outage
// amplifier. The payload carries the evidence: queue depth, breaker
// state, and the per-worker fleet view with lease ages.
func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	brState, _ := s.breaker.State()
	s.mu.Lock()
	rd := readiness{
		Ready:         true,
		Draining:      s.draining,
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
		Inflight:      s.running,
		Breaker:       brState.String(),
	}
	s.mu.Unlock()

	switch {
	case rd.Draining:
		rd.Ready, rd.Reason = false, "draining"
	case brState == retry.Open:
		rd.Ready, rd.Reason = false, "circuit breaker open"
	}

	if s.opts.ClusterStatus != nil {
		rd.Cluster = s.opts.ClusterStatus(r.Context())
		if rd.Ready && rd.Cluster != nil && rd.Cluster.Live < rd.Cluster.MinWorkers {
			rd.Ready = false
			rd.Reason = fmt.Sprintf("%d live workers below quorum of %d", rd.Cluster.Live, rd.Cluster.MinWorkers)
		}
	}

	status := http.StatusOK
	if !rd.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, rd)
}
