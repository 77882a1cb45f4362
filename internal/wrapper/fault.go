package wrapper

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
)

// FaultConfig shapes the failures a Fault wrapper injects. The zero
// value injects nothing: the wrapper is then a transparent proxy.
type FaultConfig struct {
	// ErrorRate fails each fetch with this probability (0..1), drawn
	// from the wrapper's seeded deterministic stream.
	ErrorRate float64 `json:"error_rate,omitempty"`
	// Latency delays every fetch (before any injected failure),
	// honouring context cancellation during the wait.
	Latency time.Duration `json:"-"`
	// LatencyMs is Latency's serialised form.
	LatencyMs int64 `json:"latency_ms,omitempty"`
	// Hang blocks every fetch until its context is cancelled — the
	// stuck-backend scenario deadline budgets exist for.
	Hang bool `json:"hang,omitempty"`
	// FlapUp/FlapDown schedule deterministic availability flapping by
	// fetch count: the wrapper serves FlapUp fetches healthily, fails
	// the next FlapDown, and repeats. Both must be set for flapping.
	FlapUp   int `json:"flap_up,omitempty"`
	FlapDown int `json:"flap_down,omitempty"`
	// Amplify repeats each extent's elements this many times — the
	// budget-overflow-body scenario for response-size limits (1 or 0 =
	// unchanged).
	Amplify int `json:"amplify,omitempty"`
	// Seed seeds the error-rate stream (0 = 1), so a given
	// configuration misbehaves identically on every run.
	Seed uint64 `json:"seed,omitempty"`
}

// Fault wraps another wrapper and injects deterministic faults around
// its extent fetches: seeded random errors, fixed latency,
// hang-until-cancelled, counter-based availability flapping, and
// amplified (budget-overflow) bodies. It exists to exercise the
// daemon's fault-tolerance paths — circuit breakers, stale fallback,
// degraded federation — in tests and in live chaos drills via POST
// /sources. The configuration can be flipped at runtime with Set.
type Fault struct {
	inner Wrapper

	mu    sync.Mutex
	cfg   FaultConfig
	rng   *rand.Rand
	calls int
	inst  Instance
}

// Instance returns what caches know the wrapper by: a fault wrapper is
// a source of its own, whatever it wraps.
func (w *Fault) Instance() *Instance { return &w.inst }

// NewFault wraps inner with fault injection.
func NewFault(inner Wrapper, cfg FaultConfig) (*Fault, error) {
	if inner == nil {
		return nil, fmt.Errorf("wrapper: fault: nil inner wrapper")
	}
	w := &Fault{inner: inner}
	w.Set(cfg)
	return w, nil
}

// Set replaces the fault configuration (and reseeds the error stream),
// taking effect on the next fetch.
func (w *Fault) Set(cfg FaultConfig) {
	if cfg.LatencyMs > 0 && cfg.Latency == 0 {
		cfg.Latency = time.Duration(cfg.LatencyMs) * time.Millisecond
	}
	cfg.LatencyMs = cfg.Latency.Milliseconds()
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	w.mu.Lock()
	w.cfg = cfg
	w.rng = rand.New(rand.NewPCG(cfg.Seed, 0xfa017))
	w.calls = 0
	w.mu.Unlock()
}

// Config returns the current fault configuration.
func (w *Fault) Config() FaultConfig {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cfg
}

// SchemaName implements Wrapper, delegating to the inner source.
func (w *Fault) SchemaName() string { return w.inner.SchemaName() }

// Schema implements Wrapper, delegating to the inner source.
func (w *Fault) Schema() *hdm.Schema { return w.inner.Schema() }

// Kind labels the wrapper flavour in metrics and traces.
func (w *Fault) Kind() string { return "fault" }

// Inner exposes the wrapped source.
func (w *Fault) Inner() Wrapper { return w.inner }

// decide consumes one fetch slot: it snapshots the latency/hang
// settings and rolls the flap schedule and error stream. Centralising
// the draw keeps concurrent fetches deterministic in aggregate (the
// stream is consumed under the lock).
func (w *Fault) decide() (cfg FaultConfig, fail bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	cfg = w.cfg
	n := w.calls
	w.calls++
	if cfg.FlapUp > 0 && cfg.FlapDown > 0 {
		if n%(cfg.FlapUp+cfg.FlapDown) >= cfg.FlapUp {
			return cfg, true
		}
	}
	if cfg.ErrorRate > 0 && w.rng.Float64() < cfg.ErrorRate {
		return cfg, true
	}
	return cfg, false
}

// Extent implements Wrapper.
func (w *Fault) Extent(parts []string) (iql.Value, error) {
	return w.ExtentContext(context.Background(), parts)
}

// ExtentContext injects the configured faults around the inner fetch.
func (w *Fault) ExtentContext(ctx context.Context, parts []string) (iql.Value, error) {
	if err := ctx.Err(); err != nil {
		return iql.Value{}, err
	}
	cfg, fail := w.decide()
	if cfg.Hang {
		<-ctx.Done()
		return iql.Value{}, ctx.Err()
	}
	if cfg.Latency > 0 {
		t := time.NewTimer(cfg.Latency)
		select {
		case <-ctx.Done():
			t.Stop()
			return iql.Value{}, ctx.Err()
		case <-t.C:
		}
	}
	if fail {
		return iql.Value{}, fmt.Errorf("wrapper: fault: source %q: injected failure", w.SchemaName())
	}
	v, err := w.innerExtent(ctx, parts)
	if err != nil {
		return iql.Value{}, err
	}
	if cfg.Amplify > 1 && v.Kind == iql.KindBag {
		items := make([]iql.Value, 0, len(v.Items())*cfg.Amplify)
		for i := 0; i < cfg.Amplify; i++ {
			items = append(items, v.Items()...)
		}
		v = iql.BagOf(items)
	}
	return v, nil
}

// innerExtent routes to the inner wrapper's context-aware path when it
// has one.
func (w *Fault) innerExtent(ctx context.Context, parts []string) (iql.Value, error) {
	if cw, ok := w.inner.(interface {
		ExtentContext(ctx context.Context, parts []string) (iql.Value, error)
	}); ok {
		return cw.ExtentContext(ctx, parts)
	}
	return w.inner.Extent(parts)
}

// Ping reports the wrapper's current injected availability by
// consuming one fetch slot, so federation-time probes see the same
// flap schedule queries do (query.Pinger).
func (w *Fault) Ping(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	cfg, fail := w.decide()
	if cfg.Hang {
		<-ctx.Done()
		return ctx.Err()
	}
	if fail {
		return fmt.Errorf("wrapper: fault: source %q: injected failure", w.SchemaName())
	}
	return nil
}

// FallbackExtent delegates to the inner wrapper's fallback, if any
// (query.FallbackSourcer).
func (w *Fault) FallbackExtent(parts []string) (iql.Value, bool) {
	if fb, ok := w.inner.(interface {
		FallbackExtent(parts []string) (iql.Value, bool)
	}); ok {
		return fb.FallbackExtent(parts)
	}
	return iql.Value{}, false
}

// Snapshot implements Snapshotter when the inner wrapper does: the
// fault configuration plus the inner snapshot, so chaos setups survive
// daemon restarts.
func (w *Fault) Snapshot() (*Snapshot, error) {
	sn, ok := w.inner.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("wrapper: fault: inner source %q (%T) does not support snapshotting",
			w.inner.SchemaName(), w.inner)
	}
	innerSnap, err := sn.Snapshot()
	if err != nil {
		return nil, err
	}
	return &Snapshot{Kind: "fault", Name: w.SchemaName(), Fault: &FaultSnapshot{
		Config: w.Config(),
		Inner:  innerSnap,
	}}, nil
}

// restoreFault rebuilds a Fault wrapper around its restored inner
// source.
func restoreFault(snap *Snapshot, decoded bool) (Wrapper, error) {
	f := snap.Fault
	if f == nil {
		return nil, fmt.Errorf("wrapper: source %q: fault snapshot has no fault payload", snap.Name)
	}
	inner, err := restore(f.Inner, decoded)
	if err != nil {
		return nil, fmt.Errorf("wrapper: source %q: restoring faulted inner source: %w", snap.Name, err)
	}
	return NewFault(inner, f.Config)
}
