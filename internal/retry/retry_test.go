package retry

import (
	"context"
	"testing"
	"time"
)

// TestSleepAndBackoffHonourContext: a disabled delay does not wait but
// still reports a dead context, and a cancellation cuts a long wait
// short.
func TestSleepAndBackoffHonourContext(t *testing.T) {
	live := context.Background()
	dead, cancel := context.WithCancel(live)
	cancel()
	if !Sleep(live, 0) || !Backoff(live, 0, 3) {
		t.Error("a disabled delay on a live context reported cancellation")
	}
	if Sleep(dead, 0) || Backoff(dead, 0, 0) || Sleep(dead, time.Hour) || Backoff(dead, time.Hour, 0) {
		t.Error("a dead context was reported live")
	}

	ctx, cancel := context.WithTimeout(live, 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if Backoff(ctx, time.Second, 100) {
		t.Error("a backoff outlived its context")
	}
	if waited := time.Since(start); waited > 4*time.Second {
		t.Errorf("cancelled backoff waited %v", waited)
	}
}

// TestBackoffDoublesWithJitter: attempt n waits at least half of
// base<<n, and an attempt large enough to overflow the shift is capped
// rather than skipped.
func TestBackoffDoublesWithJitter(t *testing.T) {
	for attempt, min := range []time.Duration{2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond} {
		start := time.Now()
		if !Backoff(context.Background(), 4*time.Millisecond, attempt) {
			t.Fatal("backoff on a live context reported cancellation")
		}
		if waited := time.Since(start); waited < min {
			t.Errorf("attempt %d waited %v, want at least %v", attempt, waited, min)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	Backoff(ctx, time.Millisecond, 64) // 1ms<<64 overflows to 0: capped at 5s
	if waited := time.Since(start); waited < 40*time.Millisecond {
		t.Errorf("an overflowing attempt waited %v, want the capped delay (cut short at 50ms)", waited)
	}
}

// TestBreakerReleaseAndDisabled: Release hands back a half-open probe
// slot that was granted but not used, so the next caller probes; it
// does nothing in other states. A breaker with no threshold never
// opens.
func TestBreakerReleaseAndDisabled(t *testing.T) {
	b := NewBreaker(1, time.Millisecond)
	b.Release() // closed: nothing to free
	trip(t, b)
	time.Sleep(2 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("post-cooldown probe not admitted")
	}
	if b.Allow() {
		t.Fatal("a second probe was admitted while the first is out")
	}
	b.Release()
	if !b.Allow() {
		t.Fatal("the released probe slot was not granted to the next caller")
	}
	if st, opens := b.State(); st != HalfOpen || opens != 1 {
		t.Fatalf("state = %v (opens %d), want half-open after one open", st, opens)
	}

	off := NewBreaker(0, time.Hour)
	for i := 0; i < 10; i++ {
		off.Report(false)
	}
	if st, opens := off.State(); !off.Allow() || st != Closed || opens != 0 {
		t.Errorf("disabled breaker: state %v, opens %d, want closed and admitting", st, opens)
	}
}
