package fault

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	if err := r.Fire(context.Background(), SiteSimRun); err != nil {
		t.Errorf("nil Fire = %v, want nil", err)
	}
	if r.Mangle(SiteCacheBytes, []byte("abc")) {
		t.Error("nil Mangle mangled")
	}
	if r.Fired(SiteSimRun) != 0 {
		t.Error("nil Fired != 0")
	}
}

func TestKindError(t *testing.T) {
	r := New(1).Add(Rule{Site: SiteCacheRead, Kind: KindError})
	err := r.Fire(context.Background(), SiteCacheRead)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !strings.Contains(err.Error(), SiteCacheRead) {
		t.Errorf("err %q does not name the site", err)
	}
	// Other sites are unaffected.
	if err := r.Fire(context.Background(), SiteCacheWrite); err != nil {
		t.Errorf("unruled site fired: %v", err)
	}
	if got := r.Fired(SiteCacheRead); got != 1 {
		t.Errorf("Fired = %d, want 1", got)
	}
}

func TestKindPanic(t *testing.T) {
	r := New(1).Add(Rule{Site: SiteSimRun, Kind: KindPanic})
	defer func() {
		if p := recover(); p == nil {
			t.Error("no panic injected")
		}
	}()
	_ = r.Fire(context.Background(), SiteSimRun)
}

func TestKindHangReleasedByCancel(t *testing.T) {
	r := New(1).Add(Rule{Site: SiteSimRun, Kind: KindHang})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- r.Fire(ctx, SiteSimRun) }()
	select {
	case err := <-done:
		t.Fatalf("hang returned %v before cancel", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("hang returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hang not released by cancel")
	}
}

func TestKindDelayBoundedByContext(t *testing.T) {
	r := New(1).Add(Rule{Site: SiteSSEWrite, Kind: KindDelay, Delay: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := r.Fire(ctx, SiteSSEWrite)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("delayed Fire = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Error("delay ignored the context")
	}
}

func TestSkipAndLimit(t *testing.T) {
	r := New(1).Add(Rule{Site: "x", Kind: KindError, Skip: 2, Limit: 3})
	var errs int
	for i := 0; i < 10; i++ {
		if r.Fire(context.Background(), "x") != nil {
			errs++
			if i < 2 {
				t.Errorf("hit %d activated inside the skip window", i)
			}
		}
	}
	if errs != 3 {
		t.Errorf("%d activations, want 3 (limit)", errs)
	}
}

// TestProbabilityDeterministic: the same seed and rules activate on the
// same hits; a different seed picks a different (but still seeded)
// subset near the configured rate.
func TestProbabilityDeterministic(t *testing.T) {
	pattern := func(seed uint64) []bool {
		r := New(seed).Add(Rule{Site: "x", Kind: KindError, P: 0.3})
		out := make([]bool, 200)
		for i := range out {
			out[i] = r.Fire(context.Background(), "x") != nil
		}
		return out
	}
	a, b := pattern(7), pattern(7)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hit %d differs between identically seeded registries", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired < 30 || fired > 90 {
		t.Errorf("p=0.3 fired %d/200 times, far from the configured rate", fired)
	}
}

func TestMangleDeterministicAndCounted(t *testing.T) {
	orig := bytes.Repeat([]byte("cache-entry "), 16)
	mangleOnce := func(seed uint64) []byte {
		r := New(seed).Add(Rule{Site: SiteCacheBytes, Kind: KindCorrupt})
		b := append([]byte(nil), orig...)
		if !r.Mangle(SiteCacheBytes, b) {
			t.Fatal("corrupt rule did not activate")
		}
		return b
	}
	a, b := mangleOnce(3), mangleOnce(3)
	if !bytes.Equal(a, b) {
		t.Error("identically seeded mangles differ")
	}
	if bytes.Equal(a, orig) {
		t.Error("mangle left the buffer untouched")
	}
	// Fire at the same site must not consume corrupt activations.
	r := New(3).Add(Rule{Site: SiteCacheBytes, Kind: KindCorrupt, Limit: 1})
	if err := r.Fire(context.Background(), SiteCacheBytes); err != nil {
		t.Errorf("Fire activated a corrupt rule: %v", err)
	}
	if !r.Mangle(SiteCacheBytes, append([]byte(nil), orig...)) {
		t.Error("Fire consumed the corrupt rule's only activation")
	}
}

func TestParseRule(t *testing.T) {
	tests := []struct {
		in   string
		want Rule
	}{
		{"sim.run:hang", Rule{Site: "sim.run", Kind: KindHang}},
		{"sim.run:hang:limit=1", Rule{Site: "sim.run", Kind: KindHang, Limit: 1}},
		{"sim.run:delay:500ms", Rule{Site: "sim.run", Kind: KindDelay, Delay: 500 * time.Millisecond}},
		{"runner.cache.bytes:corrupt:p=0.1", Rule{Site: "runner.cache.bytes", Kind: KindCorrupt, P: 0.1}},
		{"cluster.dispatch:error:skip=3:limit=2:p=0.5", Rule{Site: "cluster.dispatch", Kind: KindError, Skip: 3, Limit: 2, P: 0.5}},
	}
	for _, tt := range tests {
		got, err := ParseRule(tt.in)
		if err != nil {
			t.Errorf("ParseRule(%q): %v", tt.in, err)
			continue
		}
		if got != tt.want {
			t.Errorf("ParseRule(%q) = %+v, want %+v", tt.in, got, tt.want)
		}
		// String round-trips through ParseRule.
		back, err := ParseRule(got.String())
		if err != nil || back != got {
			t.Errorf("round trip of %q via %q = %+v, %v", tt.in, got.String(), back, err)
		}
	}
	for _, bad := range []string{"", "siteonly", "sim.run:explode", "sim.run:delay:notadur", "sim.run:error:p=2", "sim.run:error:frob=1", "cache.write:error"} {
		if _, err := ParseRule(bad); err == nil {
			t.Errorf("ParseRule(%q) accepted invalid rule", bad)
		}
	}
}
