package server

import (
	"github.com/dataspace/automed/internal/obs"
)

// Prometheus renders the metrics in text exposition format 0.0.4 — the
// counterpart of Snapshot for scrape-based collection. Histogram
// buckets follow the cumulative `le` convention with bounds in seconds.
func (m *Metrics) Prometheus(plan, result, extent, src, index CacheStats, queue QueueStats, sessions int, eval EvalSnapshot, health []SessionSourceHealth) []byte {
	snap := m.Snapshot(plan, result, extent, src, index, queue, sessions, eval, health)
	w := obs.NewPromWriter()

	w.Gauge("automed_uptime_seconds", "Seconds since the server started.", snap.UptimeSeconds)
	w.Counter("automed_http_requests_total", "HTTP requests served.", float64(snap.RequestsTotal))
	w.Counter("automed_queries_total", "IQL queries evaluated.", float64(snap.QueriesTotal))
	w.Counter("automed_query_errors_total", "Queries that failed.", float64(snap.QueryErrors))
	w.Counter("automed_query_timeouts_total", "Queries cancelled by the per-query timeout.", float64(snap.QueryTimeouts))
	w.Counter("automed_integration_iterations_total", "Integration steps served (federate/intersect/refine).", float64(snap.Iterations))
	w.Counter("automed_session_snapshots_total", "Session saves written to the store: step records appended, or checkpoints.", float64(snap.Snapshots))
	w.Counter("automed_session_checkpoints_total", "Session saves that wrote a whole checkpoint.", float64(snap.Checkpoints))
	w.Counter("automed_session_snapshot_errors_total", "Failed session snapshot writes.", float64(snap.SnapshotErrs))
	w.Counter("automed_sessions_restored_total", "Sessions restored from the store.", float64(snap.Restores))
	w.Counter("automed_snapshot_bytes_total", "Bytes written to session files: checkpoints and appended step records.", float64(snap.SnapshotBytes))
	w.Histogram("automed_snapshot_duration_seconds", "Time to durably write one session save: append step records, or export, encode and write a checkpoint.", m.snapshotLat.Snapshot())
	w.Histogram("automed_restore_duration_seconds", "Time to read, decode and rebuild one session from its file, its step records replayed.", m.restoreLat.Snapshot())
	w.Gauge("automed_sessions", "Live sessions.", float64(snap.Sessions))

	w.Histogram("automed_query_duration_seconds", "End-to-end query latency.", m.lat.Snapshot())

	w.Counter("automed_eval_parallel_total", "Evaluations in which at least one generator scan ran sharded.", float64(snap.Eval.ParallelEvals))
	w.Counter("automed_eval_serial_total", "Evaluations that ran fully serial.", float64(snap.Eval.SerialEvals))
	w.Counter("automed_eval_shards_total", "Shards executed by data-parallel evaluation.", float64(snap.Eval.Shards))
	w.Gauge("automed_eval_parallelism", "Effective sharded-evaluation worker-pool width.", float64(snap.Eval.Parallelism))

	drain := 0.0
	if snap.Queue.Draining {
		drain = 1
	}
	w.Gauge("automed_queue_inflight", "Admitted requests currently executing.", float64(snap.Queue.Inflight))
	w.Gauge("automed_queue_depth", "Requests parked in the admission fair queue.", float64(snap.Queue.Depth))
	w.Gauge("automed_queue_limit", "Configured max in-flight admitted requests (0 = unlimited).", float64(snap.Queue.MaxInflight))
	w.Gauge("automed_queue_capacity", "Configured max queued requests before 429s.", float64(snap.Queue.MaxQueue))
	w.Gauge("automed_draining", "1 while the server is draining for shutdown.", drain)
	w.Counter("automed_queue_admitted_total", "Requests admitted through admission control.", float64(snap.Queue.Admitted))
	w.Counter("automed_queue_rejected_total", "Requests rejected by admission control.",
		float64(snap.Queue.Rejected), "reason", "capacity")
	w.Counter("automed_queue_rejected_total", "Requests rejected by admission control.",
		float64(snap.Queue.DrainRejected), "reason", "draining")
	w.Histogram("automed_queue_wait_seconds", "Time admitted requests spent parked in the fair queue.", m.queueWait.Snapshot())

	layers := []struct {
		layer string
		s     CacheStats
	}{
		{"plan", plan},
		{"result", result},
		{"extent", extent},
		{"source_extent", src},
		{"join_index", index},
	}
	for _, l := range layers {
		lbl := []string{"layer", l.layer}
		w.Gauge("automed_cache_entries", "Entries held per cache layer.", float64(l.s.Len), lbl...)
		w.Gauge("automed_cache_bytes", "Bytes held per cache layer.", float64(l.s.Bytes), lbl...)
		w.Counter("automed_cache_hits_total", "Cache hits per layer.", float64(l.s.Hits), lbl...)
		w.Counter("automed_cache_misses_total", "Cache misses per layer.", float64(l.s.Misses), lbl...)
		w.Counter("automed_cache_evictions_total", "Cache evictions per layer.", float64(l.s.Evictions), lbl...)
		w.Counter("automed_cache_invalidations_total", "Cache invalidations per layer.", float64(l.s.Invalidations), lbl...)
	}
	w.Counter("automed_cache_replays_total", "Join runs evaluated from their records, looking up no index.",
		float64(index.Replays), "layer", "join_index")

	for _, s := range m.sources.Snapshot() {
		lbl := []string{"source", s.Source, "kind", s.Kind}
		w.Counter("automed_source_fetches_total", "Wrapper fetches per data source.", float64(s.Fetches), lbl...)
		w.Counter("automed_source_fetch_errors_total", "Failed wrapper fetches per data source.", float64(s.Errors), lbl...)
		w.Counter("automed_source_fetch_retries_total", "Wrapper fetch retries per data source.", float64(s.Retries), lbl...)
		w.Counter("automed_source_rows_total", "Extent rows fetched per data source.", float64(s.Rows), lbl...)
		w.Counter("automed_source_bytes_total", "Bytes fetched per data source.", float64(s.Bytes), lbl...)
		w.Counter("automed_source_counted_reads_total", "Wrapper fetches answered as a count taken at the data source.", float64(s.Counted), lbl...)
		w.Histogram("automed_source_fetch_duration_seconds", "Wrapper fetch latency per data source.", s.Latency, lbl...)
	}

	w.Counter("automed_panics_total", "Handler panics recovered by the middleware.", float64(snap.Panics))
	w.Counter("automed_degraded_queries_total", "Answers evaluated over stale fallback extents.", float64(snap.DegradedQueries))
	for _, h := range snap.SourceHealth {
		lbl := []string{"session", h.Session, "source", h.Source}
		open := 0.0
		if h.State == "open" {
			open = 1
		}
		w.Gauge("automed_source_breaker_open", "1 while the source's circuit breaker is open.", open, lbl...)
		w.Counter("automed_source_breaker_opens_total", "Times the source's circuit breaker opened.", float64(h.Opens), lbl...)
		w.Counter("automed_source_breaker_probes_total", "Half-open probe fetches admitted for the source.", float64(h.Probes), lbl...)
		w.Counter("automed_source_fallbacks_total", "Stale extents served for the source while unreachable.", float64(h.Fallbacks), lbl...)
	}

	return w.Bytes()
}
