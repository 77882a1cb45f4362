package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/wrapper"
)

// ---- POST /sources ----

type tableSpec struct {
	Name string `json:"name"`
	// Columns are "name:type" specs (type one of string, int, float,
	// bool, default string; the type follows the last colon); the first
	// column is the primary key unless one carries a "!pk" suffix.
	Columns     []string             `json:"columns"`
	Rows        json.RawMessage      `json:"rows"`
	ForeignKeys []wrapper.FKSnapshot `json:"foreign_keys,omitempty"`
}

// sqlSpec registers a live SQL backend reached through database/sql;
// the daemon binary must have the named driver compiled in.
type sqlSpec struct {
	Driver string `json:"driver"`
	DSN    string `json:"dsn"`
	// Dialect selects introspection: "sqlite" (default) or
	// "information_schema".
	Dialect string `json:"dialect,omitempty"`
	// TimeoutMs bounds each introspection query and extent fetch.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// restSpec registers a JSON/REST endpoint; collections are discovered
// from the endpoint root when none are declared.
type restSpec struct {
	Endpoint    string                   `json:"endpoint"`
	Collections []wrapper.RESTCollection `json:"collections,omitempty"`
	// TimeoutMs bounds each fetch; MaxBytes bounds each response body.
	TimeoutMs int   `json:"timeout_ms,omitempty"`
	MaxBytes  int64 `json:"max_bytes,omitempty"`
}

// faultSpec registers a fault-injection wrapper around an inline
// relational source: the tables behave like an ordinary Tables source
// until the fault configuration makes them misbehave. It exists for
// chaos drills, the tests' among them — a way to point the daemon's
// fault-tolerance machinery at a source that fails on demand.
type faultSpec struct {
	Tables []tableSpec         `json:"tables"`
	Config wrapper.FaultConfig `json:"config"`
}

type sourcesReq struct {
	Session string `json:"session,omitempty"`
	// Name is the data source schema name.
	Name string `json:"name"`
	// Exactly one of CSVDir, Tables, SQL, REST or Fault selects the
	// backend. CSVDir loads a directory of typed-header CSV files.
	CSVDir string      `json:"csv_dir,omitempty"`
	Tables []tableSpec `json:"tables,omitempty"`
	SQL    *sqlSpec    `json:"sql,omitempty"`
	REST   *restSpec   `json:"rest,omitempty"`
	Fault  *faultSpec  `json:"fault,omitempty"`

	wrap wrapper.Wrapper // the source the request describes, set by build
}

type sourcesResp struct {
	Session string   `json:"session"`
	Source  string   `json:"source"`
	Objects []string `json:"objects"`
	Sources []string `json:"sources"`
}

func (s *Server) handleSources(w http.ResponseWriter, r *http.Request) {
	var req sourcesReq
	s.step(w, r, &req, &req.Session, req.build, func(_ context.Context, sess *Session) (int, any, bool, error) {
		if err := sess.AddSource(req.wrap); err != nil {
			return 0, nil, false, err
		}
		return http.StatusCreated, sourcesResp{
			Session: sess.Name(),
			Source:  req.Name,
			Objects: schemeStrings(req.wrap.Schema()),
			Sources: sess.SourceNames(),
		}, true, nil
	})
}

// build wraps the data source the request describes. Remote-backend
// construction (SQL introspection, REST discovery) runs under the
// request context: a client that disconnects — or a dead endpoint —
// does not pin the handler for the full wrapper timeout.
func (req *sourcesReq) build(ctx context.Context) (err error) {
	if req.Name == "" {
		return fmt.Errorf("server: source name is required")
	}
	variants := 0
	for _, set := range []bool{req.CSVDir != "", len(req.Tables) > 0, req.SQL != nil, req.REST != nil, req.Fault != nil} {
		if set {
			variants++
		}
	}
	if variants != 1 {
		return fmt.Errorf("server: provide exactly one of csv_dir, tables, sql, rest or fault")
	}
	switch {
	case req.CSVDir != "":
		req.wrap, err = wrapper.NewCSVDir(req.Name, req.CSVDir)
	case req.SQL != nil:
		req.wrap, err = wrapper.NewSQLContext(ctx, req.Name, wrapper.SQLConfig{
			Driver:  req.SQL.Driver,
			DSN:     req.SQL.DSN,
			Dialect: req.SQL.Dialect,
			Timeout: time.Duration(req.SQL.TimeoutMs) * time.Millisecond,
		})
	case req.REST != nil:
		req.wrap, err = wrapper.NewRESTContext(ctx, req.Name, wrapper.RESTConfig{
			Endpoint:    req.REST.Endpoint,
			Collections: req.REST.Collections,
			Timeout:     time.Duration(req.REST.TimeoutMs) * time.Millisecond,
			MaxBytes:    req.REST.MaxBytes,
		})
	case req.Fault != nil:
		if req.wrap, err = inlineSource(req.Name, req.Fault.Tables); err == nil {
			req.wrap, err = wrapper.NewFault(req.wrap, req.Fault.Config)
		}
	default:
		req.wrap, err = inlineSource(req.Name, req.Tables)
	}
	return err
}

// inlineSource builds a relational source from inline tables by
// restoring the relational snapshot they are, so inline registration
// and a restored snapshot read column specs, rows (as the text they
// arrived in) and foreign keys with the same code and the same errors.
func inlineSource(name string, tables []tableSpec) (wrapper.Wrapper, error) {
	snap := &wrapper.Snapshot{Kind: "relational", Name: name}
	for _, ts := range tables {
		snap.Tables = append(snap.Tables, wrapper.TableSnapshot{Name: ts.Name, Columns: ts.Columns, Rows: ts.Rows, ForeignKeys: ts.ForeignKeys})
	}
	return wrapper.Restore(snap)
}

func schemeStrings(s *hdm.Schema) []string {
	objs := s.Objects()
	out := make([]string, len(objs))
	for i, o := range objs {
		out[i] = o.Scheme.String()
	}
	return out
}
