package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/query"
	"github.com/dataspace/automed/internal/repo"
	"github.com/dataspace/automed/internal/transform"
	"github.com/dataspace/automed/internal/wrapper"
)

// Snapshot is the durable form of a whole integration session: the
// wrapped sources (schema and data), the schemas & transformations
// repository, every view definition held by the query processor, and
// the integrator's workflow bookkeeping — intersections, refinements,
// every published global schema version, and the effort report. A
// snapshot restored with Import answers every QueryAt identically to
// the integrator it was exported from, and integration can continue
// from where it stopped.
//
// The encoding is deliberately textual (schemes and IQL queries in
// their source form, reusing the repo JSON format) so snapshots are
// human-readable, diffable, and stable across releases; SnapshotFormat
// guards incompatible changes.
//
// The two large members are held encoded: Sources as each source's
// snapshot document (wrapper.Encode — memoised by the in-memory kinds,
// so an unchanged source costs an Export nothing) and Repo as the
// repository's document (Repository.MarshalJSON). json.Marshal of a
// Snapshot gives the logical JSON; WriteJSON gives the same tokens
// without passing the large members through encoding/json again.
//
// A snapshot is a checkpoint: what a session file starts with. The
// steps taken after it are recorded as they were taken (Step), and
// Steps says where in the exporting integrator's list of them the
// snapshot stands.
type Snapshot struct {
	Format        int                  `json:"format"`
	AutoDrop      bool                 `json:"auto_drop,omitempty"`
	FedName       string               `json:"federated_schema,omitempty"`
	Skipped       []string             `json:"skipped,omitempty"` // sources federation skipped, not yet backfilled
	GlobalVersion int                  `json:"global_version"`
	Sources       []json.RawMessage    `json:"sources"`
	Repo          json.RawMessage      `json:"repo"`
	Definitions   []DerivationSnapshot `json:"definitions,omitempty"`
	Intersections []IntersectionSnap   `json:"intersections,omitempty"`
	Derived       []ObjectSnap         `json:"derived,omitempty"`
	Versions      []VersionSnap        `json:"versions,omitempty"`
	Iterations    []Iteration          `json:"iterations,omitempty"`
	// Steps is how many of the exporting integrator's steps (StepsSince)
	// the snapshot holds; it is not part of the document.
	Steps int `json:"-"`

	// image is what the first Import of the snapshot decoded, for every
	// later one to share (decoded). A pointer, so that copying a
	// Snapshot copies no lock.
	image *snapshotImage
}

// snapshotImage is the part of an import that depends on the snapshot
// alone: its repository, decoded, its definitions, parsed, and each
// source's objects in the federated schema. It is made once and never
// changed after: an Import clones the repository and shares the
// definitions' syntax trees, which no evaluation changes, and the
// federated objects, which no step changes.
type snapshotImage struct {
	once      sync.Once
	repo      *repo.Repository
	defs      []query.ObjectDef
	federated map[string][]*hdm.Object
	err       error
}

// imageMu guards the image field of every Snapshot.
var imageMu sync.Mutex

// decoded returns the snapshot's image, made by the first call. Import
// reads a snapshot and never changes it, so a snapshot once imported
// must not be changed either: its later imports would not see it.
func (s *Snapshot) decoded() (*snapshotImage, error) {
	imageMu.Lock()
	img := s.image
	if img == nil {
		img = new(snapshotImage)
		s.image = img
	}
	imageMu.Unlock()
	img.once.Do(func() {
		if img.repo, img.defs, img.err = s.decode(); img.err == nil {
			img.federated = federatedIn(img.repo, s.FedName)
		}
	})
	return img, img.err
}

// federatedIn returns each source's objects under its provenance prefix,
// in the order of the source's rename pathway to the federated schema
// fedName of r: the objects federation or backfill made of the
// source's, which the federated schema holds for those federation made.
func federatedIn(r *repo.Repository, fedName string) map[string][]*hdm.Object {
	out := make(map[string][]*hdm.Object)
pathways:
	for _, pw := range r.Pathways() {
		if pw.Target != fedName {
			continue
		}
		objs := make([]*hdm.Object, len(pw.Steps))
		for i, st := range pw.Steps {
			if st.Kind != transform.Rename {
				continue pathways
			}
			objs[i] = st.To
		}
		out[pw.Source] = objs
	}
	return out
}

// decode decodes the snapshot's repository and parses its definitions.
func (s *Snapshot) decode() (*repo.Repository, []query.ObjectDef, error) {
	r, err := repo.Decode(s.Repo)
	if err != nil {
		return nil, nil, fmt.Errorf("core: restoring repository: %w", err)
	}
	defs := make([]query.ObjectDef, 0, len(s.Definitions))
	for _, ds := range s.Definitions {
		sc, err := hdm.ParseScheme(ds.Object)
		if err != nil {
			return nil, nil, fmt.Errorf("core: restoring definition: %w", err)
		}
		q, err := iql.Parse(ds.Query)
		if err != nil {
			return nil, nil, fmt.Errorf("core: restoring definition of %s: %w", sc, err)
		}
		defs = append(defs, query.ObjectDef{Scheme: sc, Derivation: query.Derivation{Query: q, Lower: ds.Lower, Via: ds.Via, Scope: ds.Scope}})
	}
	return r, defs, nil
}

// SnapshotFormat is the current snapshot format version.
const SnapshotFormat = 1

// DerivationSnapshot is one view definition of the query processor:
// the virtual object, its defining IQL query, and the unfolding
// metadata (lower-bound flag, provenance, resolution scope).
type DerivationSnapshot struct {
	Object string `json:"object"`
	Query  string `json:"query"`
	Lower  bool   `json:"lower,omitempty"`
	Via    string `json:"via,omitempty"`
	Scope  string `json:"scope,omitempty"`
}

// IntersectionSnap records one intersection's bookkeeping. Its schema
// and per-source pathways live in the repo snapshot and are re-linked
// by name on import.
type IntersectionSnap struct {
	Name            string              `json:"name"`
	Sources         []string            `json:"sources"`
	Targets         []string            `json:"targets"`
	Derived         []string            `json:"derived,omitempty"`
	DeletedBySource map[string][]string `json:"deleted_by_source,omitempty"`
	Counts          StepCounts          `json:"counts"`
}

// ObjectSnap is a scheme plus its object kind.
type ObjectSnap struct {
	Scheme string `json:"scheme"`
	Kind   string `json:"kind"`
}

// VersionSnap names the schema published as one global version.
type VersionSnap struct {
	Version int    `json:"version"`
	Schema  string `json:"schema"`
}

// Export captures the integrator's full state. Every source must be
// serialisable (implement wrapper.Snapshotter); sessions over live
// external systems cannot be exported and report which source blocks.
func (ig *Integrator) Export() (*Snapshot, error) {
	ig.mu.RLock()
	defer ig.mu.RUnlock()

	snap := &Snapshot{
		Format:        SnapshotFormat,
		AutoDrop:      ig.autoDrop,
		FedName:       ig.fedName,
		Skipped:       slices.Clone(ig.skipped),
		GlobalVersion: ig.globalVersion,
		Steps:         len(ig.steps),
	}
	var err error
	if snap.Sources, err = wrapper.EncodeAll(ig.sources); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if snap.Repo, err = ig.repo.MarshalJSON(); err != nil {
		return nil, fmt.Errorf("core: snapshotting repository: %w", err)
	}

	defs := ig.proc.AllDerivations()
	n := 0
	for _, od := range defs {
		n += len(od.Derivs)
	}
	snap.Definitions = slices.Grow(snap.Definitions, n)
	for _, od := range defs {
		obj := hdm.NewScheme(strings.Split(od.Key, "|")...).String()
		for _, d := range od.Derivs {
			snap.Definitions = append(snap.Definitions, DerivationSnapshot{
				Object: obj,
				Query:  d.Query.String(),
				Lower:  d.Lower,
				Via:    d.Via,
				Scope:  d.Scope,
			})
		}
	}

	for _, in := range ig.intersections {
		is := IntersectionSnap{
			Name:    in.Name,
			Sources: append([]string(nil), in.Sources...),
			Counts:  in.Counts,
		}
		for _, t := range in.Targets {
			is.Targets = append(is.Targets, t.String())
		}
		for _, d := range in.Derived {
			is.Derived = append(is.Derived, d.String())
		}
		if len(in.DeletedBySource) > 0 {
			is.DeletedBySource = make(map[string][]string, len(in.DeletedBySource))
			for src, objs := range in.DeletedBySource {
				for _, sc := range objs {
					is.DeletedBySource[src] = append(is.DeletedBySource[src], sc.String())
				}
			}
		}
		snap.Intersections = append(snap.Intersections, is)
	}

	for _, om := range ig.derivedObjs {
		snap.Derived = append(snap.Derived, ObjectSnap{Scheme: om.scheme.String(), Kind: om.kind.String()})
	}
	for _, sv := range ig.versions {
		snap.Versions = append(snap.Versions, VersionSnap{Version: sv.Version, Schema: sv.Schema.Name()})
	}
	snap.Iterations = append(snap.Iterations, ig.iterations...)
	return snap, nil
}

// WriteJSON writes the snapshot as one JSON object: the small members
// through encoding/json, and between them the source documents and the
// repository's document verbatim, each source and the repository on a
// line of its own.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	small := *s
	small.Sources, small.Repo = nil, nil
	b, err := json.Marshal(&small)
	if err != nil {
		return err
	}
	// The first place these tokens can occur is where the two members
	// are: a quote inside an earlier string would be escaped.
	const hole = `"sources":null,"repo":null`
	at := bytes.Index(b, []byte(hole))
	if at < 0 || s.Sources == nil {
		return fmt.Errorf("core: snapshot without sources")
	}
	bw := bufio.NewWriter(w)
	bw.Write(b[:at])
	bw.WriteString(`"sources":[`)
	for i, doc := range s.Sources {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteByte('\n')
		bw.Write(doc)
	}
	bw.WriteString("\n],\"repo\":\n")
	if s.Repo == nil {
		bw.WriteString("null")
	}
	bw.Write(s.Repo)
	bw.WriteByte('\n')
	bw.Write(b[at+len(hole):])
	return bw.Flush()
}

// Import rebuilds an integrator from a snapshot. The restored
// integrator serves every published schema version exactly as the
// exporting one did, and accepts further Intersect/Refine iterations.
// held are sources the caller already has — the session the snapshot
// replaces — which wrapper.Decode takes as they are wherever their
// documents equal the snapshot's.
//
// The repository and the definitions are decoded by a snapshot's first
// import only (decoded): each import clones that repository and shares
// the parsed definitions. The clone shares the stored schemas and
// pathways, which no later step, Backfill included, changes in place: a
// step adds schemas and pathways. An import also takes each source's
// federated objects from the image, where they are what prefixing the
// source's objects would make, so its first global schema adds the
// image's objects and prefixes none.
func Import(snap *Snapshot, held ...wrapper.Wrapper) (*Integrator, error) {
	if snap == nil {
		return nil, fmt.Errorf("core: nil snapshot")
	}
	if snap.Format != SnapshotFormat {
		return nil, fmt.Errorf("core: unsupported snapshot format %d (want %d)", snap.Format, SnapshotFormat)
	}
	if len(snap.Sources) == 0 {
		return nil, fmt.Errorf("core: snapshot has no sources")
	}

	img, err := snap.decoded()
	if err != nil {
		return nil, err
	}
	r := img.repo.Clone()
	ig := &Integrator{
		repo:      r,
		proc:      query.New(),
		prefix:    make(map[string]string),
		federated: make(map[string][]*hdm.Object),
		autoDrop:  snap.AutoDrop,
		skipped:   slices.Clone(snap.Skipped),
	}
	for _, doc := range snap.Sources {
		w, err := wrapper.Decode(doc, held...)
		if err != nil {
			return nil, fmt.Errorf("core: restoring source: %w", err)
		}
		if err := ig.proc.AddSource(w); err != nil {
			return nil, err
		}
		ig.sources = append(ig.sources, w)
		src := w.SchemaName()
		ig.prefix[src] = sanitizePrefix(src)
		if objs, ok := img.federated[src]; ok && prefixes(objs, w.Schema(), ig.prefix[src]) {
			ig.federated[src] = objs
		}
	}

	ig.fedName = snap.FedName
	if snap.FedName != "" {
		fed, ok := r.Schema(snap.FedName)
		if !ok {
			return nil, fmt.Errorf("core: snapshot names federated schema %q but the repository lacks it", snap.FedName)
		}
		ig.fed = fed
	}
	ig.globalVersion = snap.GlobalVersion
	for _, vs := range snap.Versions {
		s, ok := r.Schema(vs.Schema)
		if !ok {
			return nil, fmt.Errorf("core: snapshot version %d names schema %q but the repository lacks it", vs.Version, vs.Schema)
		}
		ig.versions = append(ig.versions, SchemaVersion{Version: vs.Version, Schema: s})
	}
	if n := len(ig.versions); n > 0 {
		ig.global = ig.versions[n-1].Schema
	}

	ig.proc.DefineAll(img.defs)

	for _, is := range snap.Intersections {
		in := &Intersection{
			Name:            is.Name,
			Sources:         append([]string(nil), is.Sources...),
			Counts:          is.Counts,
			PathwayBySource: make(map[string]*transform.Pathway),
			DeletedBySource: make(map[string][]hdm.Scheme),
		}
		sch, ok := r.Schema(is.Name)
		if !ok {
			return nil, fmt.Errorf("core: snapshot intersection %q has no schema in the repository", is.Name)
		}
		in.Schema = sch
		for _, t := range is.Targets {
			sc, err := hdm.ParseScheme(t)
			if err != nil {
				return nil, fmt.Errorf("core: restoring intersection %q: %w", is.Name, err)
			}
			in.Targets = append(in.Targets, sc)
		}
		for _, d := range is.Derived {
			sc, err := hdm.ParseScheme(d)
			if err != nil {
				return nil, fmt.Errorf("core: restoring intersection %q: %w", is.Name, err)
			}
			in.Derived = append(in.Derived, sc)
		}
		for src, objs := range is.DeletedBySource {
			for _, o := range objs {
				sc, err := hdm.ParseScheme(o)
				if err != nil {
					return nil, fmt.Errorf("core: restoring intersection %q: %w", is.Name, err)
				}
				in.DeletedBySource[src] = append(in.DeletedBySource[src], sc)
			}
		}
		for _, src := range is.Sources {
			image := is.Name + "~" + ig.prefix[src]
			pw := findPathway(r, src, image)
			if pw == nil {
				return nil, fmt.Errorf("core: snapshot intersection %q lacks the pathway %s -> %s", is.Name, src, image)
			}
			in.PathwayBySource[src] = pw
		}
		ig.intersections = append(ig.intersections, in)
	}

	for _, os := range snap.Derived {
		sc, err := hdm.ParseScheme(os.Scheme)
		if err != nil {
			return nil, fmt.Errorf("core: restoring derived object: %w", err)
		}
		kind, err := hdm.ParseObjectKind(os.Kind)
		if err != nil {
			return nil, fmt.Errorf("core: restoring derived object %s: %w", sc, err)
		}
		ig.derivedObjs = append(ig.derivedObjs, objMeta{scheme: sc, kind: kind})
	}
	ig.iterations = append(ig.iterations, snap.Iterations...)
	if ig.global != nil {
		ig.comp = &composition{schema: ig.global, ninters: len(ig.intersections), nderived: len(ig.derivedObjs), unread: true}
	}
	return ig, nil
}

// findPathway locates a stored pathway by its exact endpoints.
func findPathway(r *repo.Repository, source, target string) *transform.Pathway {
	for _, p := range r.PathwaysFrom(source) {
		if p.Target == target {
			return p
		}
	}
	return nil
}
