package retry

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// trip opens a fresh breaker by reporting threshold failures.
func trip(t *testing.T, b *Breaker) {
	t.Helper()
	for i := 0; i < b.threshold; i++ {
		b.Report(false)
	}
	if st, _ := b.State(); st != Open {
		t.Fatalf("breaker after %d failures = %v, want open", b.threshold, st)
	}
}

// TestBreakerHalfOpenSingleProbe is the concurrency pin for the
// half-open protocol, run under -race: when the cooldown lapses and N
// goroutines race Allow(), exactly one wins the probe slot; the losers
// fast-fail without touching the worker. The winner's success closes
// the breaker exactly once; its failure re-opens it for a full cooldown.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	const goroutines = 64
	b := NewBreaker(2, 10*time.Millisecond)
	trip(t, b)
	time.Sleep(15 * time.Millisecond) // cooldown lapses; next Allow() goes half-open

	var admitted atomic.Int64
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			defer done.Done()
			start.Wait()
			if b.Allow() {
				admitted.Add(1)
			}
		}()
	}
	start.Done()
	done.Wait()
	if n := admitted.Load(); n != 1 {
		t.Fatalf("half-open admitted %d concurrent probes, want exactly 1", n)
	}
	if st, _ := b.State(); st != HalfOpen {
		t.Fatalf("state after the probe race = %v, want half-open while the probe is out", st)
	}

	// The probe succeeds: the breaker closes once, and a second racing
	// wave all passes (closed state admits everyone).
	b.Report(true)
	if st, opens := b.State(); st != Closed || opens != 1 {
		t.Fatalf("after probe success state=%v opens=%d, want closed with the single original open", st, opens)
	}
	admitted.Store(0)
	done.Add(goroutines)
	start.Add(1)
	for i := 0; i < goroutines; i++ {
		go func() {
			defer done.Done()
			start.Wait()
			if b.Allow() {
				admitted.Add(1)
			}
		}()
	}
	start.Done()
	done.Wait()
	if n := admitted.Load(); n != goroutines {
		t.Errorf("closed breaker admitted %d of %d, want all", n, goroutines)
	}
}

// TestBreakerHalfOpenProbeFailureReopens: a failed probe re-opens the
// breaker immediately and restarts the cooldown, so the next wave of
// Allow() calls all fast-fail.
func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	b := NewBreaker(2, 20*time.Millisecond)
	trip(t, b)
	time.Sleep(30 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("post-cooldown probe not admitted")
	}
	b.Report(false)
	st, opens := b.State()
	if st != Open || opens != 2 {
		t.Fatalf("after probe failure state=%v opens=%d, want re-opened with a second open counted", st, opens)
	}
	// Freshly re-opened: inside the new cooldown everyone fast-fails,
	// including concurrently.
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.Allow() {
				admitted.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := admitted.Load(); n != 0 {
		t.Errorf("re-opened breaker admitted %d dispatches inside the cooldown, want 0", n)
	}
}

// TestBreakerProbeSuccessClosesOnceUnderRace: Allow() and Report() race
// freely under -race. Every admitted dispatch reports success, so the
// breaker must converge to closed having opened exactly once — and the
// data-race detector vouches for the locking along the way.
func TestBreakerProbeSuccessClosesOnceUnderRace(t *testing.T) {
	b := NewBreaker(1, time.Millisecond)
	trip(t, b)
	time.Sleep(2 * time.Millisecond)

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				if b.Allow() {
					b.Report(true)
				}
			}
		}()
	}
	wg.Wait()
	if st, opens := b.State(); st != Closed || opens != 1 {
		t.Errorf("terminal state=%v opens=%d, want closed after exactly one open", st, opens)
	}
}
