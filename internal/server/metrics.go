package server

import (
	"strconv"
	"sync/atomic"
	"time"

	"github.com/dataspace/automed/internal/cache"
	"github.com/dataspace/automed/internal/obs"
	"github.com/dataspace/automed/internal/query"
)

// Metrics aggregates server-wide counters: request and query volumes,
// error counts, query latency, per-source fetch metrics, and (via the
// caches' own stats) plan and result cache hit rates. All methods are
// safe for concurrent use; the query hot path records without locks.
type Metrics struct {
	start time.Time

	requestsTotal atomic.Uint64
	queriesTotal  atomic.Uint64
	queryErrors   atomic.Uint64
	queryTimeouts atomic.Uint64
	iterations    atomic.Uint64 // integration steps served (federate/intersect/refine)

	snapshots       atomic.Uint64 // session saves that wrote (autosave + explicit)
	checkpoints     atomic.Uint64 // of which wrote a whole checkpoint
	snapshotBytes   atomic.Uint64 // bytes of session files written
	snapshotErrors  atomic.Uint64 // failed snapshot writes
	sessionRestores atomic.Uint64 // sessions restored from the store

	queueAdmitted      atomic.Uint64 // requests admitted (immediately or after queuing)
	queueRejected      atomic.Uint64 // 429s: queue full at the admission limit
	queueDrainRejected atomic.Uint64 // 503s: rejected because the server is draining

	panics          atomic.Uint64 // handler panics recovered by the middleware
	degradedQueries atomic.Uint64 // answers evaluated over stale fallback extents

	lat         *obs.Histogram
	queueWait   *obs.Histogram // time spent parked in the admission queue
	snapshotLat *obs.Histogram // one save: an append + fsync, or export + encode + write + fsync + rename
	restoreLat  *obs.Histogram // read + decode + rebuild of one session
	sources     *obs.Sources
}

// latencyBoundsMs are the upper bounds (milliseconds) of the query
// latency histogram: sub-millisecond buckets for cache-hit answers out
// to ten seconds for slow federated queries; observations beyond the
// last bound land in an overflow bucket.
var latencyBoundsMs = []float64{0.1, 0.5, 1, 5, 25, 100, 500, 2500, 10000}

// NewMetrics returns zeroed metrics anchored at now.
func NewMetrics() *Metrics {
	return &Metrics{
		start:       time.Now(),
		lat:         obs.NewHistogram(latencyBoundsMs),
		queueWait:   obs.NewHistogram(latencyBoundsMs),
		snapshotLat: obs.NewHistogram(latencyBoundsMs),
		restoreLat:  obs.NewHistogram(latencyBoundsMs),
		sources:     obs.NewSources(),
	}
}

// Sources exposes the per-source fetch-metrics registry; the request
// middleware attaches it to query contexts so wrapper fetches record
// into it.
func (m *Metrics) Sources() *obs.Sources { return m.sources }

// Request counts one HTTP request.
func (m *Metrics) Request() { m.requestsTotal.Add(1) }

// Iteration counts one served integration step.
func (m *Metrics) Iteration() { m.iterations.Add(1) }

// SnapshotWritten counts one session save written to the store: the
// bytes it wrote, how long it took, and whether it was a checkpoint
// (the whole file) rather than step records appended.
func (m *Metrics) SnapshotWritten(bytes int64, d time.Duration, checkpoint bool) {
	m.snapshots.Add(1)
	if checkpoint {
		m.checkpoints.Add(1)
	}
	m.snapshotBytes.Add(uint64(bytes))
	m.snapshotLat.Observe(d)
}

// SnapshotError counts one failed snapshot write.
func (m *Metrics) SnapshotError() { m.snapshotErrors.Add(1) }

// SessionRestore counts one session restored from the store and how
// long reading, decoding and rebuilding it took.
func (m *Metrics) SessionRestore(d time.Duration) {
	m.sessionRestores.Add(1)
	m.restoreLat.Observe(d)
}

// QueueAdmitted counts one request through admission control; waited
// is its time in the fair queue (zero when admitted immediately).
func (m *Metrics) QueueAdmitted(waited time.Duration) {
	m.queueAdmitted.Add(1)
	if waited > 0 {
		m.queueWait.Observe(waited)
	}
}

// QueueRejected counts one 429 at the admission limit.
func (m *Metrics) QueueRejected() { m.queueRejected.Add(1) }

// QueueDrainRejected counts one request rejected during drain.
func (m *Metrics) QueueDrainRejected() { m.queueDrainRejected.Add(1) }

// Panic counts one handler panic recovered by the middleware.
func (m *Metrics) Panic() { m.panics.Add(1) }

// DegradedQuery counts one answer served over stale fallback extents.
func (m *Metrics) DegradedQuery() { m.degradedQueries.Add(1) }

// Query records one query's outcome and latency.
func (m *Metrics) Query(d time.Duration, err error, timedOut bool) {
	m.queriesTotal.Add(1)
	if err != nil {
		m.queryErrors.Add(1)
		if timedOut {
			m.queryTimeouts.Add(1)
		}
	}
	m.lat.Observe(d)
}

// LatencySnapshot summarises an observed latency distribution. P50/95/99
// are estimated from the histogram by linear interpolation within the
// bucket holding the target rank (the histogram_quantile estimate).
type LatencySnapshot struct {
	Count   uint64            `json:"count"`
	MeanMs  float64           `json:"mean_ms"`
	MaxMs   float64           `json:"max_ms"`
	P50Ms   float64           `json:"p50_ms"`
	P95Ms   float64           `json:"p95_ms"`
	P99Ms   float64           `json:"p99_ms"`
	Buckets map[string]uint64 `json:"buckets"`
}

func latencySnapshot(h obs.HistSnapshot) LatencySnapshot {
	lat := LatencySnapshot{
		Count:   h.Count,
		MeanMs:  h.MeanMs(),
		MaxMs:   h.MaxMs(),
		P50Ms:   h.Quantile(0.50),
		P95Ms:   h.Quantile(0.95),
		P99Ms:   h.Quantile(0.99),
		Buckets: make(map[string]uint64, len(h.Counts)),
	}
	for i, c := range h.Counts {
		lat.Buckets[bucketLabel(h.BoundsMs, i)] = c
	}
	return lat
}

// SourceMetrics is the JSON shape of one data source's fetch metrics.
type SourceMetrics struct {
	Source  string `json:"source"`
	Kind    string `json:"kind"`
	Fetches uint64 `json:"fetches"`
	Errors  uint64 `json:"errors"`
	Retries uint64 `json:"retries"`
	Rows    int64  `json:"rows"`
	Bytes   int64  `json:"bytes"`
	// Counted is how many of Fetches were counts taken at the source.
	Counted uint64          `json:"counted"`
	Latency LatencySnapshot `json:"fetch_latency"`
}

// MetricsSnapshot is the JSON shape served by GET /metrics.
type MetricsSnapshot struct {
	UptimeSeconds float64         `json:"uptime_seconds"`
	RequestsTotal uint64          `json:"requests_total"`
	QueriesTotal  uint64          `json:"queries_total"`
	QueryErrors   uint64          `json:"query_errors"`
	QueryTimeouts uint64          `json:"query_timeouts"`
	Iterations    uint64          `json:"integration_iterations"`
	Snapshots     uint64          `json:"snapshots_total"`
	Checkpoints   uint64          `json:"checkpoints_total"`
	SnapshotBytes uint64          `json:"snapshot_bytes_total"`
	SnapshotErrs  uint64          `json:"snapshot_errors"`
	Restores      uint64          `json:"sessions_restored"`
	SnapshotLat   LatencySnapshot `json:"snapshot_latency"`
	RestoreLat    LatencySnapshot `json:"restore_latency"`
	Latency       LatencySnapshot `json:"query_latency"`
	PlanCache     CacheSnapshot   `json:"plan_cache"`
	ResultCache   CacheSnapshot   `json:"result_cache"`
	ExtentCache   CacheSnapshot   `json:"extent_cache"`
	SourceCache   CacheSnapshot   `json:"source_extent_cache"`
	// JoinIndexCache is the fifth layer: hash-join indexes kept per
	// extent, and join runs' entries. A miss is an index built, an
	// invalidation an index or a run dropped with its extent; its bytes
	// re-count the rows an index retains, so it stays out of the
	// aggregates below.
	JoinIndexCache CacheSnapshot `json:"join_index_cache"`
	// CacheBytes / CacheEvictions / CacheInvalidations aggregate the
	// first four cache layers above.
	CacheBytes         int64           `json:"cache_bytes_total"`
	CacheEvictions     uint64          `json:"cache_evictions_total"`
	CacheInvalidations uint64          `json:"cache_invalidations_total"`
	Sessions           int             `json:"sessions"`
	Panics             uint64          `json:"panics_total"`
	DegradedQueries    uint64          `json:"degraded_queries_total"`
	Queue              QueueSnapshot   `json:"queue"`
	Sources            []SourceMetrics `json:"sources"`
	// SourceHealth is every session's per-source breaker state; empty
	// when the fault-tolerance layer is disabled.
	SourceHealth []SessionSourceHealth `json:"source_health,omitempty"`
	// Eval is never filled and never encoded. The benchmark module
	// (bench/) still reads it; ROADMAP item 1(a) deletes it.
	Eval struct{ ParallelEvals, SerialEvals uint64 } `json:"-"`
}

// SessionSourceHealth is one source's breaker state qualified by its
// session, the metrics-endpoint shape of query.SourceHealth.
type SessionSourceHealth struct {
	Session string `json:"session"`
	query.SourceHealth
}

// QueueSnapshot is the JSON shape of the admission controller's state
// and counters.
type QueueSnapshot struct {
	QueueStats
	Admitted      uint64          `json:"admitted_total"`
	Rejected      uint64          `json:"rejected_total"`
	DrainRejected uint64          `json:"drain_rejected_total"`
	Wait          LatencySnapshot `json:"wait"`
}

// CacheStats is the server-facing name for the unified cache
// subsystem's stats snapshot; the server's cache layers (parsed plans,
// results, and — through the query processors — extent memos and source
// extents) are backed by cache.Map, and the join-index cache reports
// itself in the same shape.
type CacheStats = cache.Stats

// CacheSnapshot extends CacheStats with the derived hit rate.
type CacheSnapshot struct {
	CacheStats
	HitRate float64 `json:"hit_rate"`
}

func snapshotCache(s CacheStats) CacheSnapshot {
	return CacheSnapshot{CacheStats: s, HitRate: s.HitRate()}
}

// Snapshot gathers the current counter values; cache stats are the
// daemon's layers' (plan = parsed plans, result = answers, extent =
// virtual-extent memo, src = source extents, index = join indexes);
// queue is the admission controller's current state.
func (m *Metrics) Snapshot(plan, result, extent, src, index CacheStats, queue QueueStats, sessions int, health []SessionSourceHealth) MetricsSnapshot {
	srcSnaps := m.sources.Snapshot()
	sources := make([]SourceMetrics, 0, len(srcSnaps))
	for _, s := range srcSnaps {
		sources = append(sources, SourceMetrics{
			Source:  s.Source,
			Kind:    s.Kind,
			Fetches: s.Fetches,
			Errors:  s.Errors,
			Retries: s.Retries,
			Rows:    s.Rows,
			Bytes:   s.Bytes,
			Counted: s.Counted,
			Latency: latencySnapshot(s.Latency),
		})
	}

	return MetricsSnapshot{
		UptimeSeconds:      time.Since(m.start).Seconds(),
		RequestsTotal:      m.requestsTotal.Load(),
		QueriesTotal:       m.queriesTotal.Load(),
		QueryErrors:        m.queryErrors.Load(),
		QueryTimeouts:      m.queryTimeouts.Load(),
		Iterations:         m.iterations.Load(),
		Snapshots:          m.snapshots.Load(),
		Checkpoints:        m.checkpoints.Load(),
		SnapshotBytes:      m.snapshotBytes.Load(),
		SnapshotErrs:       m.snapshotErrors.Load(),
		Restores:           m.sessionRestores.Load(),
		SnapshotLat:        latencySnapshot(m.snapshotLat.Snapshot()),
		RestoreLat:         latencySnapshot(m.restoreLat.Snapshot()),
		Latency:            latencySnapshot(m.lat.Snapshot()),
		PlanCache:          snapshotCache(plan),
		ResultCache:        snapshotCache(result),
		ExtentCache:        snapshotCache(extent),
		SourceCache:        snapshotCache(src),
		JoinIndexCache:     snapshotCache(index),
		CacheBytes:         plan.Bytes + result.Bytes + extent.Bytes + src.Bytes,
		CacheEvictions:     plan.Evictions + result.Evictions + extent.Evictions + src.Evictions,
		CacheInvalidations: plan.Invalidations + result.Invalidations + extent.Invalidations + src.Invalidations,
		Sessions:           sessions,
		Panics:             m.panics.Load(),
		DegradedQueries:    m.degradedQueries.Load(),
		SourceHealth:       health,
		Queue: QueueSnapshot{
			QueueStats:    queue,
			Admitted:      m.queueAdmitted.Load(),
			Rejected:      m.queueRejected.Load(),
			DrainRejected: m.queueDrainRejected.Load(),
			Wait:          latencySnapshot(m.queueWait.Snapshot()),
		},
		Sources: sources,
	}
}

// bucketLabel renders the i-th bucket's JSON key. Bounds format
// losslessly ("le_0.1ms", "le_2500ms"); the overflow bucket past the
// last bound is "le_inf".
func bucketLabel(bounds []float64, i int) string {
	if i >= len(bounds) {
		return "le_inf"
	}
	return "le_" + strconv.FormatFloat(bounds[i], 'g', -1, 64) + "ms"
}
