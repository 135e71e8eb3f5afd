package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"hbcache/internal/fault"
	"hbcache/internal/sim"
)

// TestRegisterHeartbeatDeregister walks one worker through the
// membership lifecycle: join (new), renew, graceful drain, revival.
func TestRegisterHeartbeatDeregister(t *testing.T) {
	opts := fastOptions() // empty seed fleet
	opts.LeaseTTL = time.Hour
	coord, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx := context.Background()

	isNew, ttl := coord.Register("http://w1:9/")
	if !isNew || ttl != time.Hour {
		t.Fatalf("first register = new=%v ttl=%v, want a new member with the configured TTL", isNew, ttl)
	}
	if isNew, _ := coord.Register("http://w1:9"); isNew {
		t.Error("re-register (modulo trailing slash) reported the worker as new")
	}
	if st := coord.Status(); st.Total != 1 || st.Live != 1 || st.Registered != 1 {
		t.Errorf("fleet after register = %+v, want 1/1/1", st)
	}
	if !coord.Heartbeat(ctx, "http://w1:9") {
		t.Error("heartbeat for a registered worker rejected")
	}
	if coord.Heartbeat(ctx, "http://stranger:9") {
		t.Error("heartbeat for an unknown worker accepted")
	}

	coord.Deregister("http://w1:9")
	if coord.Heartbeat(ctx, "http://w1:9") {
		t.Error("heartbeat for a draining worker accepted (it should re-register)")
	}
	h := coord.Health()
	if len(h) != 1 || h[0].State != "draining" || h[0].Healthy {
		t.Errorf("health after deregister = %+v, want draining and not dispatchable", h)
	}
	if st := coord.Status(); st.Live != 0 {
		t.Errorf("draining worker still counted live: %+v", st)
	}

	// The process comes back: registration revives it with a clean slate.
	if isNew, _ := coord.Register("http://w1:9"); !isNew {
		t.Error("register after drain did not report a revival")
	}
	if h := coord.Health(); h[0].State != "active" || !h[0].Healthy {
		t.Errorf("health after revival = %+v, want active", h)
	}
}

// TestLeaseExpiryStealsShards: a registered worker stops heartbeating
// while a point is in flight on it. The reaper expires the lease and
// cancels the dispatch, the point waits out the join grace, and a
// late-registering worker completes it — shard stealing plus dynamic
// join in one flow, with the expiry counted for /metrics.
func TestLeaseExpiryStealsShards(t *testing.T) {
	block := make(chan struct{})
	stall := func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		select {
		case <-block:
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		}
		return stubSim(ctx, cfg)
	}
	slow := newTestWorker(t, nil, stall)
	fast := newTestWorker(t, nil, nil)
	t.Cleanup(func() { close(block) })

	opts := fastOptions()
	opts.LeaseTTL = 50 * time.Millisecond
	opts.JoinGrace = 30 * time.Second
	coord, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	coord.Register(slow.ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	type res struct {
		r   sim.Result
		err error
	}
	done := make(chan res, 1)
	go func() {
		r, err := coord.Run(ctx, testConfig(3))
		done <- res{r, err}
	}()

	// No heartbeats arrive: the lease dies, the stalled dispatch is
	// cancelled, and the point parks waiting for a fleet. Then the
	// replacement worker joins — mid-sweep, no coordinator restart.
	time.Sleep(150 * time.Millisecond)
	coord.Register(fast.ts.URL)

	out := <-done
	if out.err != nil {
		t.Fatalf("point did not fail over to the late joiner: %v", out.err)
	}
	if want, _ := stubSim(ctx, testConfig(3)); out.r.Cycles != want.Cycles {
		t.Errorf("stolen point result = %+v, want %+v", out.r, want)
	}
	if st := coord.Status(); st.LeaseExpiries == 0 {
		t.Error("lease expiry not counted")
	}
	for _, h := range coord.Health() {
		switch h.URL {
		case slow.ts.URL:
			if h.State != "expired" || h.Healthy {
				t.Errorf("stalled worker health = %+v, want expired", h)
			}
		case fast.ts.URL:
			if h.Completed != 1 {
				t.Errorf("late joiner health = %+v, want the stolen point completed", h)
			}
		}
	}

	// Expiry is not exile: a fresh registration revives the worker.
	if isNew, _ := coord.Register(slow.ts.URL); !isNew {
		t.Error("register after expiry did not report a revival")
	}
	if !coord.Heartbeat(ctx, slow.ts.URL) {
		t.Error("heartbeat after revival rejected")
	}
}

// TestPermanentWorkersNeverExpire: seed workers from -workers are
// membership bedrock — no heartbeat, no lease, no reaping.
func TestPermanentWorkersNeverExpire(t *testing.T) {
	w := newTestWorker(t, nil, nil)
	opts := fastOptions(w.ts.URL)
	opts.LeaseTTL = 20 * time.Millisecond
	coord, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Registering starts the reaper and grants a lease even to a seed
	// worker; letting it lapse must not expire a permanent member.
	coord.Register(w.ts.URL)
	time.Sleep(100 * time.Millisecond)
	h := coord.Health()
	if len(h) != 1 || h[0].State != "active" || !h[0].Permanent {
		t.Fatalf("seed worker after lease lapse = %+v, want still active", h)
	}
	if _, err := coord.Run(context.Background(), testConfig(1)); err != nil {
		t.Errorf("dispatch to a lease-lapsed permanent worker failed: %v", err)
	}
}

// TestDeregisteredFleetFailsFast: with the only worker drained away and
// the join grace disabled, dispatch surfaces ErrNoWorkers instead of
// hanging.
func TestDeregisteredFleetFailsFast(t *testing.T) {
	opts := fastOptions()
	opts.JoinGrace = -1
	opts.DispatchRetries = 2
	coord, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.Register("http://w1:9")
	coord.Deregister("http://w1:9")
	_, err = coord.Run(context.Background(), testConfig(1))
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("dispatch against a drained fleet = %v, want ErrNoWorkers", err)
	}
}

// TestChaosHeartbeatDrop: a fault rule at cluster.heartbeat eats the
// renewal — the chaos-suite rehearsal for lease expiry with a healthy
// worker. The worker's recovery move (re-register) still works.
func TestChaosHeartbeatDrop(t *testing.T) {
	reg := fault.New(1)
	rule, err := fault.ParseRule("cluster.heartbeat:error:limit=1")
	if err != nil {
		t.Fatal(err)
	}
	reg.Add(rule)
	opts := fastOptions()
	opts.Faults = reg
	coord, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.Register("http://w1:9")
	ctx := context.Background()
	if coord.Heartbeat(ctx, "http://w1:9") {
		t.Fatal("heartbeat under a drop rule succeeded")
	}
	if reg.Fired(fault.SiteClusterHeartbeat) != 1 {
		t.Error("heartbeat fault site did not fire")
	}
	if !coord.Heartbeat(ctx, "http://w1:9") {
		t.Error("heartbeat after the rule's limit rejected")
	}
}
