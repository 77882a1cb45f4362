package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"
)

// BeginDrain flips the server into draining mode: /healthz turns
// unready (load balancers stop routing here), every queued request is
// woken with a 503 + Retry-After, and all new work is rejected the same
// way. Requests already admitted keep running. Idempotent.
func (s *Server) BeginDrain() { s.adm.beginDrain() }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.adm.stats().Draining }

// Drain performs the server side of a graceful shutdown: BeginDrain,
// wait for every admitted request to finish (bounded by ctx), then
// flush a final snapshot of every session to the store. A drain that
// times out still flushes — the snapshots capture whatever state the
// sessions reached — but reports the deadline error.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	idleErr := s.adm.waitIdle(ctx)
	// Background recovery probes hold live wrapper connections; wait for
	// them too before flushing, so snapshots see quiesced sessions. The
	// probes run under a bounded context of their own, so this wait
	// cannot outlive ProbeInterval by much.
	s.probeWG.Wait()
	if err := s.FlushSnapshots(); err != nil {
		s.log.Error("drain: snapshot flush failed", "error", err)
		if idleErr == nil {
			idleErr = err
		}
	}
	return idleErr
}

// FlushSnapshots persists every live session to the store; a no-op when
// persistence is disabled. The first failure is returned but does not
// stop the remaining sessions from being flushed.
func (s *Server) FlushSnapshots() error {
	if s.Store() == nil {
		return nil
	}
	var firstErr error
	for _, sess := range s.reg.All() {
		if _, err := s.SnapshotSession(sess.Name()); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// QueueStats exposes the admission controller's current state (for
// /metrics and tests).
func (s *Server) QueueStats() QueueStats { return s.adm.stats() }

// retryAfterSeconds estimates how long a rejected client should wait
// before retrying: the backlog ahead of it (queue depth plus the
// in-flight requests) divided by the service capacity, priced at the
// median query latency, clamped to [1s, 30s]. With no latency data yet
// the floor applies.
func (s *Server) retryAfterSeconds() int {
	st := s.adm.stats()
	capacity := st.MaxInflight
	if capacity <= 0 {
		capacity = 1
	}
	p50 := s.metrics.lat.Snapshot().Quantile(0.50) // milliseconds
	est := p50 * float64(st.Depth+st.Inflight) / float64(capacity) / 1000
	secs := int(est + 0.999)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// ServeGraceful serves the handler on ln until ctx is cancelled
// (typically by SIGTERM through signal.NotifyContext), then drains:
// the admission queue empties with 503s, /healthz goes unready,
// in-flight requests get up to drainTimeout to finish, and every
// session is flushed to the store before returning. A nil return means
// the drain completed cleanly with no request dropped.
func (s *Server) ServeGraceful(ctx context.Context, ln net.Listener, drainTimeout time.Duration) error {
	httpSrv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}

	s.log.Info("draining", "timeout", drainTimeout, "queue", s.adm.stats().Depth)
	s.BeginDrain()
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Shutdown stops the listener and waits for in-flight HTTP
	// handlers; Drain additionally waits for admitted work (a superset
	// under normal operation, the belt to Shutdown's braces) and
	// flushes session snapshots.
	shutdownErr := httpSrv.Shutdown(dctx)
	drainErr := s.Drain(dctx)
	if shutdownErr != nil {
		s.log.Error("drain: http shutdown incomplete", "error", shutdownErr)
		if drainErr == nil {
			drainErr = shutdownErr
		}
	}
	if drainErr == nil {
		s.log.Info("drained")
	}
	return drainErr
}
