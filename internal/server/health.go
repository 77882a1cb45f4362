package server

import (
	"net/http"
	"strconv"
	"strings"

	"github.com/dataspace/automed/internal/query"
)

// sessionHealth is one session's fault-tolerance state in /healthz.
type sessionHealth struct {
	Session string               `json:"session"`
	Sources []query.SourceHealth `json:"sources"`
	// Skipped lists federation-skipped sources awaiting backfill.
	Skipped []string `json:"skipped_sources,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// During drain the health check goes unready so load balancers pull
	// this instance out of rotation while in-flight work finishes.
	if s.Draining() {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":   "draining",
			"sessions": s.reg.Len(),
		})
		return
	}
	// Health checks double as the recovery driver: each one may launch
	// a rate-limited background probe of open breakers and skipped
	// sources, so a monitored daemon heals without a dedicated timer.
	s.maybeProbe()
	status := "ok"
	var health []sessionHealth
	for _, sess := range s.reg.All() {
		hs := sess.SourceHealth()
		skipped := sess.Skipped()
		if len(hs) == 0 && len(skipped) == 0 {
			continue
		}
		for _, h := range hs {
			if h.State != "closed" {
				status = "degraded"
			}
		}
		if len(skipped) > 0 {
			status = "degraded"
		}
		health = append(health, sessionHealth{Session: sess.Name(), Sources: hs, Skipped: skipped})
	}
	resp := map[string]any{
		"status":   status,
		"sessions": s.reg.Len(),
	}
	if health != nil {
		resp["source_health"] = health
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves Prometheus text exposition by default; the JSON
// snapshot remains available via ?format=json or an Accept header
// naming application/json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	plan, result := s.reg.caches.plans.Stats(), s.reg.caches.results.Stats()
	memo, src, index := s.reg.caches.extents.Stats()
	queue, n, health := s.QueueStats(), s.reg.Len(), s.sourceHealth()
	if wantsJSONMetrics(r) {
		writeJSON(w, http.StatusOK, s.metrics.Snapshot(plan, result, memo, src, index, queue, n, health))
		return
	}
	body := s.metrics.Prometheus(plan, result, memo, src, index, queue, n, health)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func wantsJSONMetrics(r *http.Request) bool {
	if f := r.URL.Query().Get("format"); f != "" {
		return strings.EqualFold(f, "json")
	}
	return strings.Contains(r.Header.Get("Accept"), "application/json")
}

// handleTraces serves the bounded ring of recent query traces (those
// explicitly requested via X-Automed-Trace plus slow queries when a
// threshold is armed), newest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"traces": s.traces.Snapshot()})
}

// sourceHealth collects every session's per-source breaker state for
// the metrics endpoint, in stable (session, source) order.
func (s *Server) sourceHealth() []SessionSourceHealth {
	var out []SessionSourceHealth
	for _, sess := range s.reg.All() {
		for _, h := range sess.SourceHealth() {
			out = append(out, SessionSourceHealth{Session: sess.Name(), SourceHealth: h})
		}
	}
	return out
}
