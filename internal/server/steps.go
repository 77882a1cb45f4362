package server

import (
	"context"
	"fmt"
	"net/http"

	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/match"
)

// stepFunc is one workflow step's operation on its session. On success
// it reports the status, the response body, and whether it mutated the
// session; on failure the error, and a status when errStatus would not
// pick the right one (0 leaves it to errStatus).
type stepFunc func(ctx context.Context, sess *Session) (status int, body any, mutated bool, err error)

// step is the one path every workflow step crosses: decode the body
// into req, pass admission control under the session name the body
// carries, look the session up, run the operation, and — if it mutated
// the session — count the integration iteration and autosave, then
// respond. A handler supplies only its request shape and its operation;
// every rejection (400 for an undecodable body, 429/503 + Retry-After
// from admission, 404 for an unknown session, the operation's own
// error) is written here. create is set by the one step that may create
// its session: it builds what the step will add and runs before the
// lookup, so a request whose source cannot be built (a 400) leaves no
// empty session behind.
func (s *Server) step(w http.ResponseWriter, r *http.Request, req any, session *string, create func(context.Context) error, run stepFunc) {
	if err := decode(r, req); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	release, ok := s.admit(r.Context(), w, r, *session)
	if !ok {
		return
	}
	defer release()
	if create != nil {
		if err := create(r.Context()); err != nil {
			writeErr(w, r, http.StatusBadRequest, err)
			return
		}
	}
	sess, err := s.reg.Get(*session, create != nil)
	if err != nil {
		writeErr(w, r, errStatus(err), err)
		return
	}
	status, body, mutated, err := run(r.Context(), sess)
	if err != nil {
		if status == 0 {
			status = errStatus(err)
		}
		writeErr(w, r, status, err)
		return
	}
	if mutated {
		// Registering a source leaves the session unfederated; every
		// other mutation publishes or revises a schema version, which
		// is what the iteration counter counts.
		if sess.version() >= 0 {
			s.metrics.Iteration()
		}
		s.persist(sess)
	}
	writeJSON(w, status, body)
}

// ---- POST /federate ----

type federateReq struct {
	Session  string `json:"session,omitempty"`
	Name     string `json:"name,omitempty"`
	AutoDrop bool   `json:"auto_drop,omitempty"`
}

type federateResp struct {
	Session string   `json:"session"`
	Schema  string   `json:"schema"`
	Version int      `json:"version"`
	Objects []string `json:"objects"`
	// Skipped lists sources federation proceeded without (degraded
	// federation: unreachable at probe time, backfilled later).
	Skipped []string `json:"skipped_sources,omitempty"`
}

func (s *Server) handleFederate(w http.ResponseWriter, r *http.Request) {
	var req federateReq
	s.step(w, r, &req, &req.Session, nil, func(ctx context.Context, sess *Session) (int, any, bool, error) {
		ig, err := sess.Federate(ctx, req.Name, req.AutoDrop)
		if err != nil {
			return 0, nil, false, err
		}
		fed := ig.Federated()
		return http.StatusCreated, federateResp{
			Session: sess.Name(),
			Schema:  fed.Name(),
			Version: ig.GlobalVersion(),
			Objects: schemeStrings(fed),
			Skipped: ig.Skipped(),
		}, true, nil
	})
}

// ---- POST /intersect and POST /refine ----

// The mappings table arrives in core's own shape: core.Mapping,
// core.SourceQuery and core.ReverseQuery carry the request's JSON tags.
type intersectReq struct {
	Session  string         `json:"session,omitempty"`
	Name     string         `json:"name,omitempty"`
	Mappings []core.Mapping `json:"mappings"`
	Enables  []string       `json:"enables,omitempty"`
}

type countsResp struct {
	Manual int `json:"manual"`
	Auto   int `json:"auto"`
}

type intersectResp struct {
	Session      string     `json:"session"`
	Intersection string     `json:"intersection"`
	Sources      []string   `json:"sources"`
	Targets      []string   `json:"targets"`
	Counts       countsResp `json:"counts"`
	GlobalSchema string     `json:"global_schema"`
	Version      int        `json:"version"`
}

func (s *Server) handleIntersect(w http.ResponseWriter, r *http.Request) {
	var req intersectReq
	s.step(w, r, &req, &req.Session, nil, func(_ context.Context, sess *Session) (int, any, bool, error) {
		in, err := sess.Intersect(req.Name, req.Mappings, req.Enables...)
		if err != nil {
			return 0, nil, false, err
		}
		ig, _ := sess.integrator()
		targets := make([]string, len(in.Targets))
		for i, t := range in.Targets {
			targets[i] = t.String()
		}
		return http.StatusCreated, intersectResp{
			Session:      sess.Name(),
			Intersection: in.Name,
			Sources:      in.Sources,
			Targets:      targets,
			Counts:       countsResp{Manual: in.Counts.Manual(), Auto: in.Counts.Auto()},
			GlobalSchema: ig.Global().Name(),
			Version:      ig.GlobalVersion(),
		}, true, nil
	})
}

type refineReq struct {
	Session string       `json:"session,omitempty"`
	Name    string       `json:"name"`
	Mapping core.Mapping `json:"mapping"`
	Enables []string     `json:"enables,omitempty"`
}

type refineResp struct {
	Session      string `json:"session"`
	Refinement   string `json:"refinement"`
	GlobalSchema string `json:"global_schema"`
	Version      int    `json:"version"`
}

func (s *Server) handleRefine(w http.ResponseWriter, r *http.Request) {
	var req refineReq
	s.step(w, r, &req, &req.Session, nil, func(_ context.Context, sess *Session) (int, any, bool, error) {
		if err := sess.Refine(req.Name, req.Mapping, req.Enables...); err != nil {
			return 0, nil, false, err
		}
		ig, _ := sess.integrator()
		return http.StatusCreated, refineResp{
			Session:      sess.Name(),
			Refinement:   req.Name,
			GlobalSchema: ig.Global().Name(),
			Version:      ig.GlobalVersion(),
		}, true, nil
	})
}

// ---- POST /suggest ----

type suggestReq struct {
	Session  string  `json:"session,omitempty"`
	SourceA  string  `json:"source_a"`
	SourceB  string  `json:"source_b"`
	MinScore float64 `json:"min_score,omitempty"`
}

type correspondenceResp struct {
	Left     string             `json:"left"`
	Right    string             `json:"right"`
	Score    float64            `json:"score"`
	Evidence map[string]float64 `json:"evidence,omitempty"`
}

type suggestResp struct {
	Session         string               `json:"session"`
	Correspondences []correspondenceResp `json:"correspondences"`
}

func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	var req suggestReq
	s.step(w, r, &req, &req.Session, nil, func(_ context.Context, sess *Session) (int, any, bool, error) {
		wa, okA := sess.Wrapper(req.SourceA)
		wb, okB := sess.Wrapper(req.SourceB)
		if !okA || !okB {
			return http.StatusNotFound, nil, false,
				fmt.Errorf("server: session %q does not have both sources %q and %q", sess.Name(), req.SourceA, req.SourceB)
		}
		m := match.New(match.DefaultConfig())
		best := m.Best(wa.Schema(), wb.Schema(), wa, wb, req.MinScore)
		resp := suggestResp{Session: sess.Name(), Correspondences: []correspondenceResp{}}
		for _, c := range best {
			resp.Correspondences = append(resp.Correspondences, correspondenceResp{
				Left:     c.Left.String(),
				Right:    c.Right.String(),
				Score:    c.Score,
				Evidence: c.Evidence,
			})
		}
		return http.StatusOK, resp, false, nil
	})
}
