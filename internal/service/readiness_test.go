package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hbcache/internal/runner"
	"hbcache/internal/sim"
)

// newHandlerServer serves an already-built service over HTTP.
func newHandlerServer(t *testing.T, svc *Service) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, r io.ReadCloser) string {
	t.Helper()
	defer r.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestReadyzHealthy: a fresh service is ready, and the payload carries
// the queue and breaker evidence.
func TestReadyzHealthy(t *testing.T) {
	_, ts := newTestServer(t, stubSim, Options{QueueSize: 7})
	var rd struct {
		Ready         bool   `json:"ready"`
		Breaker       string `json:"breaker"`
		QueueCapacity int    `json:"queue_capacity"`
		Cluster       any    `json:"cluster"`
	}
	resp := getJSON(t, ts.URL+"/readyz", &rd)
	if resp.StatusCode != http.StatusOK || !rd.Ready {
		t.Fatalf("readyz = %d %+v, want 200 ready", resp.StatusCode, rd)
	}
	if rd.Breaker != "closed" || rd.QueueCapacity != 7 {
		t.Errorf("readyz payload = %+v, want closed breaker and the configured queue bound", rd)
	}
	if rd.Cluster != nil {
		t.Errorf("single-process readyz reported a cluster block: %+v", rd.Cluster)
	}
}

// TestReadyzBreakerOpen: an open circuit breaker makes the instance
// not-ready while liveness stays green.
func TestReadyzBreakerOpen(t *testing.T) {
	boom := func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		return sim.Result{}, fmt.Errorf("boom: %w", sim.ErrInvalidConfig)
	}
	_, ts := newTestServer(t, boom, Options{BreakerThreshold: 1, BreakerCooldown: time.Hour})
	postJSON(t, ts.URL+"/v1/jobs", submitRequest{Config: testConfig(1)})

	waitFor(t, func() bool {
		var rd struct {
			Ready  bool   `json:"ready"`
			Reason string `json:"reason"`
		}
		resp := getJSON(t, ts.URL+"/readyz", &rd)
		return resp.StatusCode == http.StatusServiceUnavailable && rd.Reason == "circuit breaker open"
	})
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz with an open breaker = %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}
}

// TestReadyzCluster: a coordinator's readiness reflects its fleet's
// lease-based quorum — live workers below -min-workers means not ready,
// with no network probing — and /metrics grows the per-worker labeled
// families plus the fleet-level lease/journal counters.
func TestReadyzCluster(t *testing.T) {
	live := 0
	opts := Options{
		ClusterStatus: func(ctx context.Context) *ClusterStatus {
			return &ClusterStatus{
				Workers: []WorkerStatus{
					{URL: "http://w1", Healthy: true, State: "active", Registered: true, LeaseAgeMs: 120, Dispatched: 5, Completed: 4, Breaker: "closed"},
					{URL: "http://w2", Healthy: false, State: "expired", Registered: true, LeaseAgeMs: 99000, Failed: 3, Breaker: "open", BreakerOpens: 2},
				},
				Live:           live,
				Registered:     live,
				Reachable:      live,
				Total:          2,
				MinWorkers:     1,
				LeaseExpiries:  1,
				JournalReplays: 1,
			}
		},
	}
	_, ts := newTestServer(t, stubSim, opts)

	var rd struct {
		Ready   bool   `json:"ready"`
		Reason  string `json:"reason"`
		Cluster *ClusterStatus
	}
	resp := getJSON(t, ts.URL+"/readyz", &rd)
	if resp.StatusCode != http.StatusServiceUnavailable || rd.Reason != "0 live workers below quorum of 1" {
		t.Fatalf("workerless readyz = %d %+v, want 503 below quorum", resp.StatusCode, rd)
	}
	if rd.Cluster == nil || len(rd.Cluster.Workers) != 2 {
		t.Fatalf("readyz cluster block = %+v, want both workers", rd.Cluster)
	}
	if w := rd.Cluster.Workers[0]; !w.Registered || w.LeaseAgeMs != 120 {
		t.Errorf("readyz worker lease evidence = %+v, want registered with its lease age", w)
	}
	if rd.Cluster.Registered != 0 || rd.Cluster.MinWorkers != 1 {
		t.Errorf("readyz fleet counts = %+v, want registered count and quorum", rd.Cluster)
	}

	live = 1
	rd.Reason = ""
	if resp := getJSON(t, ts.URL+"/readyz", &rd); resp.StatusCode != http.StatusOK || !rd.Ready {
		t.Fatalf("readyz with a live worker = %d %+v, want 200", resp.StatusCode, rd)
	}

	body := readAll(t, mustGet(t, ts.URL+"/metrics").Body)
	for _, want := range []string{
		`hbserved_cluster_workers 2`,
		`hbserved_cluster_live_workers 1`,
		`hbserved_cluster_workers_registered 1`,
		`hbserved_cluster_lease_expiries_total 1`,
		`hbserved_cluster_journal_replays_total 1`,
		`hbserved_worker_up{worker="http://w1"} 1`,
		`hbserved_worker_up{worker="http://w2"} 0`,
		`hbserved_worker_breaker_state{worker="http://w2"} 1`,
		`hbserved_worker_lease_age_seconds{worker="http://w1"} 0.12`,
		`hbserved_worker_dispatched_total{worker="http://w1"} 5`,
		`hbserved_worker_breaker_opens_total{worker="http://w2"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// stubMembership records membership calls for the endpoint tests.
type stubMembership struct {
	mu          sync.Mutex
	registered  map[string]bool
	heartbeats  int
	deregisters int
}

func (m *stubMembership) Register(url string) (bool, time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.registered == nil {
		m.registered = map[string]bool{}
	}
	isNew := !m.registered[url]
	m.registered[url] = true
	return isNew, 1500 * time.Millisecond
}

func (m *stubMembership) Heartbeat(ctx context.Context, url string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.heartbeats++
	return m.registered[url]
}

func (m *stubMembership) Deregister(url string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.deregisters++
	delete(m.registered, url)
}

// TestClusterMembershipEndpoints: the register/heartbeat/deregister
// surface round-trips through HTTP — 201 for a new worker with its
// lease TTL, 200 for renewals, 404 for heartbeats from unknown workers,
// and absence of the endpoints entirely on non-coordinators.
func TestClusterMembershipEndpoints(t *testing.T) {
	m := &stubMembership{}
	_, ts := newTestServer(t, stubSim, Options{Membership: m})

	post := func(path, url string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(fmt.Sprintf(`{"url":%q}`, url)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	resp := post("/v1/cluster/register", "http://w1:9")
	var reg struct {
		New        bool  `json:"new"`
		LeaseTTLMs int64 `json:"lease_ttl_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated || !reg.New || reg.LeaseTTLMs != 1500 {
		t.Fatalf("first register = %d %+v, want 201 new with the lease TTL", resp.StatusCode, reg)
	}
	if resp := post("/v1/cluster/register", "http://w1:9"); resp.StatusCode != http.StatusOK {
		t.Errorf("re-register = %d, want 200 (not new)", resp.StatusCode)
	}
	if resp := post("/v1/cluster/heartbeat", "http://w1:9"); resp.StatusCode != http.StatusOK {
		t.Errorf("heartbeat = %d, want 200", resp.StatusCode)
	}
	if resp := post("/v1/cluster/heartbeat", "http://stranger:9"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown heartbeat = %d, want 404 (re-register cue)", resp.StatusCode)
	}
	if resp := post("/v1/cluster/deregister", "http://w1:9"); resp.StatusCode != http.StatusOK {
		t.Errorf("deregister = %d, want 200", resp.StatusCode)
	}
	if resp := post("/v1/cluster/heartbeat", "http://w1:9"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("heartbeat after deregister = %d, want 404", resp.StatusCode)
	}
	if m.deregisters != 1 {
		t.Errorf("deregisters = %d, want 1", m.deregisters)
	}

	// A worker (no Membership hook) has no membership surface at all.
	_, plain := newTestServer(t, stubSim, Options{})
	resp, err := http.Post(plain.URL+"/v1/cluster/register", "application/json", strings.NewReader(`{"url":"http://w:1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("register on a non-coordinator = %d, want 404", resp.StatusCode)
	}
}

// TestStoreMounted: a runner with a result store gets the store's HTTP
// surface on the service handler; a storeless runner serves 404 there.
func TestStoreMounted(t *testing.T) {
	r, err := runner.New(runner.Options{Workers: 1, Sim: stubSim, Store: runner.NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(r, Options{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	ts := newHandlerServer(t, svc)

	rs := runner.NewRemoteStore(ts.URL, nil, nil)
	key := strings.Repeat("ab", 32)
	if err := rs.Put(key, testConfig(1), sim.Result{Benchmark: "gcc", Cycles: 42}); err != nil {
		t.Fatal(err)
	}
	got, ok := rs.Get(key)
	if !ok || got.Cycles != 42 {
		t.Fatalf("round-trip through the mounted store = %+v ok=%v", got, ok)
	}
	body := readAll(t, mustGet(t, ts.URL+"/metrics").Body)
	if !strings.Contains(body, "hbserved_store_puts_total 1") {
		t.Error("metrics missing the store server counters")
	}

	_, tsNoStore := newTestServer(t, stubSim, Options{})
	resp, err := http.Get(tsNoStore.URL + "/v1/store")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/store on a storeless service = %d, want 404", resp.StatusCode)
	}
}
