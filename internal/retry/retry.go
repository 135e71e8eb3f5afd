// Package retry holds hbcache's one copy of each retry primitive: a
// context-aware sleep, exponential backoff with jitter, and a circuit
// breaker. The runner, the service and the cluster coordinator each
// keep their own defaults and pass them in.
package retry

import (
	"context"
	"math/rand/v2"
	"sync"
	"time"
)

// Sleep waits d or until ctx ends, reporting whether ctx is still live.
// A non-positive d does not wait.
func Sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// maxBackoff caps one backoff delay, so a long retry chain keeps
// probing at a bounded interval.
const maxBackoff = 5 * time.Second

// Backoff waits out the delay before retry attempt+1 (attempt counts
// from 0): base<<attempt with ±50% jitter, capped at 5s, so a systemic
// failure is not hammered and concurrent retriers spread out. A
// non-positive base disables the delay. It reports false if ctx ended.
func Backoff(ctx context.Context, base time.Duration, attempt int) bool {
	if base <= 0 {
		return ctx.Err() == nil
	}
	d := base << attempt
	if d <= 0 || d > maxBackoff {
		d = maxBackoff
	}
	return Sleep(ctx, d/2+rand.N(d)) // uniform in [d/2, 3d/2)
}

// State is a breaker's position. The numeric values are exported
// verbatim on /metrics (hbserved_breaker_state,
// hbserved_worker_breaker_state).
type State int

const (
	Closed   State = 0
	Open     State = 1
	HalfOpen State = 2
)

func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is a closed → open → half-open circuit breaker. Consecutive
// failures open it; an open breaker refuses work until the cooldown
// passes, then admits a single half-open probe whose outcome closes it
// or re-opens it for another cooldown. It is safe for concurrent use.
type Breaker struct {
	threshold int           // consecutive failures to open; <=0 disables
	cooldown  time.Duration // open duration before a half-open probe

	mu       sync.Mutex
	state    State
	fails    int
	openedAt time.Time
	probing  bool // a half-open probe is out
	opens    int64
}

// NewBreaker returns a closed breaker that opens after threshold
// consecutive failures and stays open for cooldown. A threshold <= 0
// disables it: Allow always admits.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown}
}

// Allow reports whether new work may proceed. An open breaker turns
// half-open once the cooldown has passed; half-open admits exactly one
// probe at a time. A caller that is admitted must Report the work's
// outcome, or Release the probe slot if the work never started.
func (b *Breaker) Allow() bool {
	if b.threshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Open:
		if time.Since(b.openedAt) < b.cooldown {
			return false
		}
		b.state = HalfOpen
		b.probing = false
		fallthrough
	case HalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
	}
	return true
}

// Report folds one outcome in. Success clears the failure streak and
// closes a half-open breaker; failure re-opens a half-open breaker at
// once and trips a closed one at the threshold.
func (b *Breaker) Report(ok bool) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.fails = 0
		if b.state == HalfOpen {
			b.state = Closed
		}
		b.probing = false
		return
	}
	b.fails++
	if b.state == HalfOpen || (b.state == Closed && b.fails >= b.threshold) {
		b.state = Open
		b.openedAt = time.Now()
		b.opens++
		b.probing = false
	}
}

// Release frees a half-open probe slot that Allow granted but the
// caller never used (the work was refused downstream), so the next
// caller can probe instead of waiting out a probe that will never
// report. It is a no-op in any other state.
func (b *Breaker) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		b.probing = false
	}
}

// State returns the breaker's position and how many times it has
// opened.
func (b *Breaker) State() (State, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.opens
}
