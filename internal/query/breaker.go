// Per-source circuit breakers and stale-extent fallback: the
// fault-tolerance layer between the query processor and its wrappers.
//
// Every registered source gets a breaker in the classic three states.
// Closed passes fetches through while tracking outcomes in a rolling
// window; it opens after a run of consecutive errors or when the
// window's failure rate crosses the threshold. Open short-circuits
// fetches entirely (the source gets no traffic) until a jittered probe
// interval elapses; the breaker then goes half-open and admits exactly
// one probe fetch, closing on success and re-opening on failure.
//
// While a source is unreachable — breaker open, or a fetch failed —
// the processor serves the last-known-good extent it retained from the
// most recent successful fetch (or, failing that, the wrapper's own
// snapshot fallback), stamping the evaluation with a structured
// degraded warning so callers can tell a stale answer from a fresh
// one. Strict-freshness policy lives above this layer: the server
// turns degraded answers into errors when asked to.
package query

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"time"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
)

// BreakerConfig tunes the per-source circuit breakers and the
// stale-extent fallback. The zero value disables the whole layer;
// enabling it with zero thresholds applies the defaults below.
type BreakerConfig struct {
	// Enabled turns the fault-tolerance layer on. Off, fetches behave
	// exactly as without breakers: failures propagate to the query.
	Enabled bool
	// OpenFor is the base interval an open breaker waits before
	// admitting a half-open probe; the actual wait is jittered in
	// [0.5·OpenFor, 1.5·OpenFor) so probes across sources do not
	// synchronise (default 2s).
	OpenFor time.Duration
	// SourceTimeout is the per-fetch deadline budget: each wrapper
	// fetch runs under min(request deadline, SourceTimeout), so one
	// slow backend cannot eat a whole query's context (0 = none). It
	// applies whether the breakers are enabled or not.
	SourceTimeout time.Duration
}

// The thresholds and the probe jitter are not settings: a breaker opens
// after breakerConsecutive consecutive fetch errors, or when its rolling
// window of the last breakerWindow fetch outcomes holds at least
// breakerMinSamples and the failing fraction reaches
// breakerFailureRate; breakerSeed seeds the deterministic jitter stream.
const (
	breakerConsecutive = 3
	breakerWindow      = 16
	breakerFailureRate = 0.5
	breakerMinSamples  = 4
	breakerSeed        = 1
)

// withDefaults resolves zero thresholds to the documented defaults.
func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.OpenFor <= 0 {
		c.OpenFor = 2 * time.Second
	}
	return c
}

// Breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// stateName renders a breaker state for health reports and metrics.
func stateName(state int) string {
	switch state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// breaker is one source's circuit breaker. All fields are guarded by
// mu; now is a test seam.
type breaker struct {
	cfg BreakerConfig
	now func() time.Time

	mu        sync.Mutex
	rng       *rand.Rand
	state     int
	window    []bool // ring of outcomes, true = failure
	widx      int
	wlen      int
	fails     int // failures currently in the window
	consec    int // consecutive failures
	openedAt  time.Time
	retryAt   time.Time
	probing   bool // a half-open probe fetch is in flight
	opens     uint64
	probes    uint64
	fallbacks uint64
	lastErr   string
}

func newBreaker(cfg BreakerConfig) *breaker {
	return &breaker{
		cfg:    cfg,
		now:    time.Now,
		rng:    rand.New(rand.NewPCG(breakerSeed, 0xb4ea4e4)),
		window: make([]bool, breakerWindow),
	}
}

// allow reports whether a fetch may proceed. In the open state it
// transitions to half-open once the jittered probe interval has
// elapsed, admitting exactly one probe at a time; probe is true for
// that admitted probe fetch.
func (b *breaker) allow() (proceed, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		if b.now().Before(b.retryAt) {
			return false, false
		}
		b.state = breakerHalfOpen
		b.probing = true
		b.probes++
		return true, true
	default: // half-open
		if b.probing {
			return false, false
		}
		b.probing = true
		b.probes++
		return true, true
	}
}

// probeAllow admits a fetch only when the source needs probing: open
// with the interval elapsed, half-open with no probe in flight, or
// closed over an instance that served a stale copy. Other closed
// breakers are left alone.
func (b *breaker) probeAllow(stale bool) bool {
	b.mu.Lock()
	idle := b.state == breakerClosed && !stale
	b.mu.Unlock()
	if idle {
		return false
	}
	proceed, _ := b.allow()
	return proceed
}

// record folds one fetch outcome into the breaker. A success closes a
// half-open breaker (and resets the window); a failure re-opens it, or
// opens a closed breaker once a threshold trips.
func (b *breaker) record(ok bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if ok {
		b.push(false)
		b.consec = 0
		b.lastErr = ""
		if b.state != breakerClosed {
			b.state = breakerClosed
			b.reset()
		}
		return
	}
	b.push(true)
	b.consec++
	b.lastErr = compactErr(err)
	switch b.state {
	case breakerHalfOpen:
		b.open()
	case breakerClosed:
		if b.consec >= breakerConsecutive ||
			(b.wlen >= breakerMinSamples && float64(b.fails) >= breakerFailureRate*float64(b.wlen)) {
			b.open()
		}
	}
}

// cancelProbe releases a half-open probe slot without recording an
// outcome (the fetch was aborted by its request's own cancellation,
// which says nothing about the source).
func (b *breaker) cancelProbe() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// open transitions to the open state with a fresh jittered retry time.
// Caller holds mu.
func (b *breaker) open() {
	b.state = breakerOpen
	b.opens++
	b.openedAt = b.now()
	d := b.cfg.OpenFor
	jittered := d/2 + time.Duration(b.rng.Int64N(int64(d)))
	b.retryAt = b.openedAt.Add(jittered)
}

// push adds one outcome to the rolling window. Caller holds mu.
func (b *breaker) push(fail bool) {
	if b.wlen == len(b.window) {
		if b.window[b.widx] {
			b.fails--
		}
	} else {
		b.wlen++
	}
	b.window[b.widx] = fail
	if fail {
		b.fails++
	}
	b.widx = (b.widx + 1) % len(b.window)
}

// reset clears the rolling window. Caller holds mu.
func (b *breaker) reset() {
	for i := range b.window {
		b.window[i] = false
	}
	b.widx, b.wlen, b.fails = 0, 0, 0
}

// noteFallback counts one stale extent served for this source.
func (b *breaker) noteFallback() {
	b.mu.Lock()
	b.fallbacks++
	b.mu.Unlock()
}

// lastError returns the most recent failure's compact message.
func (b *breaker) lastError() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastErr
}

// health snapshots the breaker for /healthz and metrics.
func (b *breaker) health() SourceHealth {
	b.mu.Lock()
	defer b.mu.Unlock()
	h := SourceHealth{
		State:               stateName(b.state),
		ConsecutiveFailures: b.consec,
		WindowSize:          b.wlen,
		Opens:               b.opens,
		Probes:              b.probes,
		Fallbacks:           b.fallbacks,
		LastError:           b.lastErr,
	}
	if b.wlen > 0 {
		h.FailureRate = float64(b.fails) / float64(b.wlen)
	}
	if b.state == breakerOpen {
		if d := b.retryAt.Sub(b.now()); d > 0 {
			h.RetryInMs = d.Milliseconds()
		}
	}
	return h
}

// SetBreaker installs (or disables) the per-source circuit-breaker and
// stale-fallback configuration. Existing breakers are dropped so the
// new thresholds apply uniformly.
func (p *Processor) SetBreaker(cfg BreakerConfig) {
	if cfg.Enabled {
		cfg = cfg.withDefaults()
	}
	p.mu.Lock()
	p.brCfg = cfg
	p.breakers = make(map[string]*breaker)
	p.mu.Unlock()
}

// breakerFor returns the source's breaker, creating it on first use;
// nil when the breaker layer is disabled.
func (p *Processor) breakerFor(name string) *breaker {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.brCfg.Enabled {
		return nil
	}
	b := p.breakers[name]
	if b == nil {
		b = newBreaker(p.brCfg)
		p.breakers[name] = b
	}
	return b
}

// SourceHealth reports every registered source's breaker state, in
// registration order. Sources never fetched report closed breakers.
func (p *Processor) SourceHealth() []SourceHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.brCfg.Enabled {
		return nil
	}
	out := make([]SourceHealth, 0, len(p.sources))
	for _, s := range p.sources {
		h := SourceHealth{State: stateName(breakerClosed)}
		if b := p.breakers[s.name]; b != nil {
			h = b.health()
		}
		h.Source, h.Kind = s.name, s.kind
		out = append(out, h)
	}
	return out
}

// ProbeOpen reads one extent, in readProbe mode, from every source that
// has a breaker or whose instance served a stale copy — in this
// processor or another over it. read admits the probe only through an
// open (or stuck half-open) breaker whose probe interval has elapsed, or
// over a stale instance, so recovered sources close their breakers and
// retire what was computed while they were down (see guard.settle)
// without waiting for query traffic, and healthy ones are not touched.
// It returns how many recovered.
func (p *Processor) ProbeOpen(ctx context.Context) int {
	var due []source
	p.mu.Lock()
	for _, s := range p.sources {
		if p.breakers[s.name] != nil || s.inst.Stale() {
			due = append(due, s)
		}
	}
	p.mu.Unlock()
	recovered := 0
	for _, src := range due {
		sc, ok := probeScheme(src.schema)
		if !ok {
			continue
		}
		if _, err := p.read(ctx, src, sc, readProbe, nil); err != nil {
			if ctx.Err() != nil {
				return recovered // the probe run itself was cancelled
			}
			continue
		}
		recovered++
	}
	return recovered
}

// probeScheme picks a deterministic probe object from a source schema:
// its first object in scheme-key order.
func probeScheme(sch *hdm.Schema) (hdm.Scheme, bool) {
	var best hdm.Scheme
	found := false
	for _, o := range sch.Objects() {
		if !found || o.Scheme.Key() < best.Key() {
			best, found = o.Scheme, true
		}
	}
	return best, found
}

// SourceHealth is one source's breaker state, as reported by
// Processor.SourceHealth (and surfaced in /healthz and /metrics).
type SourceHealth struct {
	Source              string  `json:"source"`
	Kind                string  `json:"kind"`
	State               string  `json:"state"`
	ConsecutiveFailures int     `json:"consecutive_failures"`
	FailureRate         float64 `json:"failure_rate"`
	WindowSize          int     `json:"window"`
	Opens               uint64  `json:"opens_total"`
	Probes              uint64  `json:"probes_total"`
	Fallbacks           uint64  `json:"fallbacks_total"`
	RetryInMs           int64   `json:"retry_in_ms,omitempty"`
	LastError           string  `json:"last_error,omitempty"`
}

// Pinger is the optional liveness extension of an extent provider:
// wrappers over remote backends implement it so federation and
// probe-driven recovery can test reachability without fetching data.
type Pinger interface {
	Ping(ctx context.Context) error
}

// FallbackSourcer is the optional stale-fallback extension of an
// extent provider: wrappers that retain offline extents (e.g. REST and
// SQL snapshot fallbacks) expose them so breaker-open fetches can be
// answered from them when the processor has no fresher last-known-good
// copy of its own.
type FallbackSourcer interface {
	FallbackExtent(parts []string) (iql.Value, bool)
}

// DegradedPrefix tags warnings that mark an answer as degraded:
// evaluated over stale (last-known-good or snapshot-fallback) extents
// because a source was unreachable. Strict-freshness callers match on
// it to refuse such answers.
const DegradedPrefix = "degraded: "

// IsDegraded reports whether a warning marks a stale-data answer.
func IsDegraded(warn string) bool {
	return strings.HasPrefix(warn, DegradedPrefix)
}

// degradedWarning renders the structured degraded warning: source,
// object, staleness age (negative = unknown) and cause.
func degradedWarning(source string, sc hdm.Scheme, age time.Duration, cause string) string {
	ageStr := "unknown"
	if age >= 0 {
		ageStr = age.Round(time.Millisecond).String()
	}
	return fmt.Sprintf("%ssource %s: serving stale extent for <<%s>> (age %s; cause: %s)",
		DegradedPrefix, source, strings.Join(sc.Parts(), ", "), ageStr, cause)
}

// compactErr flattens an error to one line for warnings and health
// reports.
func compactErr(err error) string {
	if err == nil {
		return ""
	}
	return strings.Join(strings.Fields(err.Error()), " ")
}
