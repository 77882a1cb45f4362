package server

import (
	"errors"
	"net/http"
	"os"
)

type schemaVersionResp struct {
	Version int      `json:"version"`
	Name    string   `json:"name"`
	Objects []string `json:"objects"`
}

type schemasResp struct {
	Session        string              `json:"session"`
	Sources        []string            `json:"sources"`
	CurrentVersion int                 `json:"current_version"`
	Versions       []schemaVersionResp `json:"versions"`
}

func (s *Server) handleSchemas(w http.ResponseWriter, r *http.Request) {
	sess, err := s.reg.Get(r.URL.Query().Get("session"), false)
	if err != nil {
		writeErr(w, r, errStatus(err), err)
		return
	}
	resp := schemasResp{
		Session:        sess.Name(),
		Sources:        sess.SourceNames(),
		CurrentVersion: sess.version(),
	}
	if ig, err := sess.integrator(); err == nil {
		for _, sv := range ig.Versions() {
			resp.Versions = append(resp.Versions, schemaVersionResp{
				Version: sv.Version,
				Name:    sv.Schema.Name(),
				Objects: schemeStrings(sv.Schema),
			})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

type iterationResp struct {
	Name             string   `json:"name"`
	Kind             string   `json:"kind"`
	Manual           int      `json:"manual"`
	Auto             int      `json:"auto"`
	CumulativeManual int      `json:"cumulative_manual"`
	Enables          []string `json:"enables,omitempty"`
	GlobalSchema     string   `json:"global_schema"`
}

type reportResp struct {
	Session     string          `json:"session"`
	Iterations  []iterationResp `json:"iterations"`
	TotalManual int             `json:"total_manual"`
	TotalAuto   int             `json:"total_auto"`
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	sess, err := s.reg.Get(r.URL.Query().Get("session"), false)
	if err != nil {
		writeErr(w, r, errStatus(err), err)
		return
	}
	ig, err := sess.integrator()
	if err != nil {
		writeErr(w, r, errStatus(err), err)
		return
	}
	rep := ig.Report()
	resp := reportResp{Session: sess.Name()}
	cum := 0
	for _, it := range rep.Iterations {
		cum += it.Counts.Manual()
		resp.Iterations = append(resp.Iterations, iterationResp{
			Name:             it.Name,
			Kind:             it.Kind,
			Manual:           it.Counts.Manual(),
			Auto:             it.Counts.Auto(),
			CumulativeManual: cum,
			Enables:          it.Enables,
			GlobalSchema:     it.GlobalSchema,
		})
	}
	t := rep.Totals()
	resp.TotalManual, resp.TotalAuto = t.Manual(), t.Auto()
	writeJSON(w, http.StatusOK, resp)
}

type sessionInfo struct {
	Name      string   `json:"name"`
	Sources   []string `json:"sources"`
	Federated bool     `json:"federated"`
	Version   int      `json:"version"`
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	out := make([]sessionInfo, 0)
	for _, sess := range s.reg.All() {
		v := sess.version()
		out = append(out, sessionInfo{Name: sess.Name(), Sources: sess.SourceNames(), Federated: v >= 0, Version: v})
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

// ---- POST /sessions/{name}/snapshot and /sessions/{name}/restore ----

type snapshotResp struct {
	Session string `json:"session"`
	File    string `json:"file"`
	// Version is the session's current global schema version (-1
	// before federation).
	Version int `json:"version"`
}

// handleSnapshot forces a durable snapshot of one session, regardless
// of autosave. Useful after out-of-band mutations and as a consistency
// point before operational work on the data directory.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sess, err := s.SnapshotSession(r.PathValue("name"))
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, errStoreClosed):
			status = http.StatusConflict
		case errStatus(err) == http.StatusNotFound:
			status = http.StatusNotFound
		}
		writeErr(w, r, status, err)
		return
	}
	writeJSON(w, http.StatusOK, snapshotResp{
		Session: sess.Name(),
		File:    fileName(sess.Name()),
		Version: sess.version(),
	})
}

type restoreResp struct {
	Session   string   `json:"session"`
	Federated bool     `json:"federated"`
	Version   int      `json:"version"`
	Sources   []string `json:"sources"`
}

// handleRestore replaces one session's in-memory state with its latest
// on-disk snapshot. The session need not exist in memory — restore is
// how a snapshot taken by another process (or a pre-crash incarnation)
// is brought live without restarting the daemon.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	sess, err := s.restoreSession(r.PathValue("name"))
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, errStoreClosed):
			status = http.StatusConflict
		case errors.Is(err, os.ErrNotExist):
			status = http.StatusNotFound
		case errors.Is(err, errBadSnapshot):
			status = http.StatusBadRequest
		}
		writeErr(w, r, status, err)
		return
	}
	v := sess.version()
	writeJSON(w, http.StatusOK, restoreResp{Session: sess.Name(), Federated: v >= 0, Version: v, Sources: sess.SourceNames()})
}

// handleInvalidate retires one session's cached extents and answers,
// and those of every session over the same source instances, so the
// next queries re-fetch from the sources. This is the ops lever for
// fault drills and for forcing a freshness check: warm caches otherwise
// shield a downed source from queries indefinitely.
func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	sess, err := s.reg.Get(r.PathValue("name"), false)
	if err != nil {
		writeErr(w, r, errStatus(err), err)
		return
	}
	sess.InvalidateExtents()
	writeJSON(w, http.StatusOK, map[string]any{
		"session":     sess.Name(),
		"invalidated": true,
	})
}
