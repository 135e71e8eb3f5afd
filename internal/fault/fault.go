// Package fault is a deterministic, seedable fault-injection registry
// for chaos testing and failure rehearsal. Production code calls a
// registry at named sites (the Site* constants); a nil registry is the
// normal no-fault fast path, so call sites cost one nil check when no
// chaos is configured.
//
// Rules are matched per site hit in registration order: each hit of a
// site advances that rule's hit counter, and the rule activates when
// the hit is past Skip, under Limit, and wins the probability draw from
// the registry's seeded generator. Two registries built with the same
// seed and the same rules activate on exactly the same hits, so chaos
// tests are reproducible and a production incident rehearsed with
// -fault flags replays identically.
package fault

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"time"

	"hbcache/internal/retry"
)

// Kind is the failure mode a rule injects.
type Kind string

const (
	// KindPanic panics at the site, exercising recover paths.
	KindPanic Kind = "panic"
	// KindDelay sleeps for the rule's Delay (bounded by the caller's
	// context), modeling slow dependencies and slow consumers.
	KindDelay Kind = "delay"
	// KindHang blocks until the caller's context is cancelled, then
	// returns the context's error — a stuck dependency that only a
	// timeout or client disconnect can free.
	KindHang Kind = "hang"
	// KindError returns ErrInjected from the site.
	KindError Kind = "error"
	// KindCorrupt is applied by Mangle: a few bytes of the buffer the
	// site is about to persist are flipped deterministically.
	KindCorrupt Kind = "corrupt"
)

// Named injection sites wired into the production code. A rule's Site
// may be any string, but these are the ones that exist today.
const (
	// SiteSimRun fires at the start of every simulation run.
	SiteSimRun = "sim.run"
	// SiteCacheRead fires on every disk-cache lookup (error/delay only:
	// the cache has no cancellable context, so hangs are unsupported).
	SiteCacheRead = "runner.cache.read"
	// SiteCacheWrite fires on every disk-cache store.
	SiteCacheWrite = "runner.cache.write"
	// SiteCacheBytes mangles the serialized cache entry before it is
	// written, producing a genuinely corrupt file on disk.
	SiteCacheBytes = "runner.cache.bytes"
	// SiteSSEWrite fires before each SSE event write, simulating a slow
	// subscriber that stalls the stream.
	SiteSSEWrite = "service.sse.write"
	// SiteClusterDispatch fires before the coordinator hands a point to
	// a worker, modeling a flaky control plane between nodes.
	SiteClusterDispatch = "cluster.dispatch"
	// SiteStoreRemoteGet fires on every remote-store lookup (error/delay:
	// an injected error behaves as a cache miss, like a network blip).
	SiteStoreRemoteGet = "store.remote.get"
	// SiteStoreRemotePut fires on every remote-store write; an injected
	// error drops the write, which the runner tolerates by design.
	SiteStoreRemotePut = "store.remote.put"
	// SiteSnapshotRead fires on every simulation-snapshot load. Corrupt
	// or injected-error loads are quarantined/treated as missing — a run
	// never silently resumes from bad state.
	SiteSnapshotRead = "snapshot.read"
	// SiteSnapshotWrite fires on every simulation-snapshot store; a
	// KindCorrupt rule at the same site mangles the serialized snapshot
	// after checksumming, producing a genuinely corrupt file on disk.
	SiteSnapshotWrite = "snapshot.write"
	// SiteClusterJournalWrite fires before each sweep-journal append; a
	// KindCorrupt rule at the same site mangles the record after
	// checksumming, landing a genuinely corrupt line in the journal.
	SiteClusterJournalWrite = "cluster.journal.write"
	// SiteClusterJournalRead fires once per sweep-journal replay.
	SiteClusterJournalRead = "cluster.journal.read"
	// SiteClusterHeartbeat fires as the coordinator processes a worker
	// heartbeat; an injected error drops the heartbeat, so a limit rule
	// rehearses lease expiry without killing the worker.
	SiteClusterHeartbeat = "cluster.heartbeat"
)

// ErrInjected is returned from sites where a KindError rule activates.
var ErrInjected = errors.New("fault: injected error")

// Rule describes one fault: where, what, and how often.
type Rule struct {
	// Site names the injection point (usually a Site* constant).
	Site string
	// Kind is the failure mode.
	Kind Kind
	// Delay is how long KindDelay sleeps. Ignored by other kinds.
	Delay time.Duration
	// P is the activation probability per eligible hit; 0 means always.
	P float64
	// Skip leaves the first Skip hits of the site unfaulted.
	Skip int
	// Limit caps total activations; 0 means unlimited.
	Limit int
}

func (r Rule) validate() error {
	if r.Site == "" {
		return errors.New("fault: rule needs a site")
	}
	switch r.Kind {
	case KindPanic, KindDelay, KindHang, KindError, KindCorrupt:
	default:
		return fmt.Errorf("fault: unknown kind %q", r.Kind)
	}
	if r.P < 0 || r.P > 1 {
		return fmt.Errorf("fault: probability %v outside [0,1]", r.P)
	}
	return nil
}

// String renders the rule in the same site:kind[:delay][:opt=v] syntax
// ParseRule accepts.
func (r Rule) String() string {
	var b strings.Builder
	b.WriteString(r.Site)
	b.WriteByte(':')
	b.WriteString(string(r.Kind))
	if r.Delay > 0 {
		b.WriteByte(':')
		b.WriteString(r.Delay.String())
	}
	if r.P > 0 {
		fmt.Fprintf(&b, ":p=%g", r.P)
	}
	if r.Skip > 0 {
		fmt.Fprintf(&b, ":skip=%d", r.Skip)
	}
	if r.Limit > 0 {
		fmt.Fprintf(&b, ":limit=%d", r.Limit)
	}
	return b.String()
}

// ParseRule parses the CLI syntax site:kind[:delay][:p=F][:skip=N][:limit=N],
// e.g. "sim.run:hang:limit=1", "runner.cache.bytes:corrupt:p=0.1",
// "sim.run:delay:500ms".
func ParseRule(s string) (Rule, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 {
		return Rule{}, fmt.Errorf("fault: bad rule %q (want site:kind[:delay][:p=F][:skip=N][:limit=N])", s)
	}
	r := Rule{Site: parts[0], Kind: Kind(parts[1])}
	for _, opt := range parts[2:] {
		switch k, v, hasEq := strings.Cut(opt, "="); {
		case !hasEq:
			d, err := time.ParseDuration(opt)
			if err != nil {
				return Rule{}, fmt.Errorf("fault: bad delay %q in rule %q", opt, s)
			}
			r.Delay = d
		case k == "p":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return Rule{}, fmt.Errorf("fault: bad probability %q in rule %q", v, s)
			}
			r.P = p
		case k == "skip":
			n, err := strconv.Atoi(v)
			if err != nil {
				return Rule{}, fmt.Errorf("fault: bad skip %q in rule %q", v, s)
			}
			r.Skip = n
		case k == "limit":
			n, err := strconv.Atoi(v)
			if err != nil {
				return Rule{}, fmt.Errorf("fault: bad limit %q in rule %q", v, s)
			}
			r.Limit = n
		default:
			return Rule{}, fmt.Errorf("fault: unknown option %q in rule %q", k, s)
		}
	}
	if err := r.validate(); err != nil {
		return Rule{}, err
	}
	return r, nil
}

// ruleState pairs a rule with its mutable counters.
type ruleState struct {
	Rule
	hits  int // site hits seen by this rule
	fired int // activations so far
}

// Registry holds the active rules. The zero value is unusable; a nil
// *Registry is valid everywhere and injects nothing.
type Registry struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []*ruleState
	fired map[string]int
}

// New builds an empty registry whose probability draws come from seed.
func New(seed uint64) *Registry {
	return &Registry{
		rng:   rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		fired: map[string]int{},
	}
}

// Add registers rules. It panics on an invalid rule — registries are
// built at startup from flags or test setup, where failing loudly is
// right.
func (r *Registry) Add(rules ...Rule) *Registry {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rule := range rules {
		if err := rule.validate(); err != nil {
			panic(err)
		}
		r.rules = append(r.rules, &ruleState{Rule: rule})
	}
	return r
}

// match advances the site's hit counters and returns the first rule
// that activates on this hit, if any. Corrupt rules are considered only
// when corrupt is set (Mangle) and other kinds only when it is not
// (Fire), so the two entry points keep independent hit counts.
func (r *Registry) match(site string, corrupt bool) (Rule, bool) {
	if r == nil {
		return Rule{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rs := range r.rules {
		if rs.Site != site || (rs.Kind == KindCorrupt) != corrupt {
			continue
		}
		rs.hits++
		if rs.hits <= rs.Skip {
			continue
		}
		if rs.Limit > 0 && rs.fired >= rs.Limit {
			continue
		}
		if rs.P > 0 && r.rng.Float64() >= rs.P {
			continue
		}
		rs.fired++
		r.fired[site]++
		return rs.Rule, true
	}
	return Rule{}, false
}

// Fire applies the active fault at site, if any: KindPanic panics,
// KindDelay sleeps (cut short by ctx, whose error is then returned),
// KindHang blocks until ctx is cancelled and returns its error, and
// KindError returns ErrInjected. KindCorrupt rules never activate here;
// they belong to Mangle. A nil registry returns nil immediately.
func (r *Registry) Fire(ctx context.Context, site string) error {
	if r == nil {
		return nil
	}
	rule, ok := r.match(site, false)
	if !ok {
		return nil
	}
	switch rule.Kind {
	case KindPanic:
		panic(fmt.Sprintf("fault: injected panic at %s", site))
	case KindDelay:
		if !retry.Sleep(ctx, rule.Delay) {
			return ctx.Err()
		}
	case KindHang:
		<-ctx.Done()
		return ctx.Err()
	case KindError:
		return fmt.Errorf("%w at %s", ErrInjected, site)
	}
	return nil
}

// Mangle applies an active KindCorrupt rule at site to b, flipping a
// deterministic handful of bytes in place, and reports whether it did.
// Other kinds at the same site are ignored here.
func (r *Registry) Mangle(site string, b []byte) bool {
	if r == nil || len(b) == 0 {
		return false
	}
	if _, ok := r.match(site, true); !ok {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < 3; i++ {
		b[r.rng.IntN(len(b))] ^= 0x5a
	}
	return true
}

// Fired reports how many faults have activated at site.
func (r *Registry) Fired(site string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fired[site]
}
