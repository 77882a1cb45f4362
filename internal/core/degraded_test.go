package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/wrapper"
)

// faultedShop wraps the Shop source in a fault wrapper so tests can
// take it down (probes fail) and heal it again.
func faultedShop(t *testing.T, cfg wrapper.FaultConfig) *wrapper.Fault {
	t.Helper()
	ws, err := wrapper.NewRelational("Shop", shopDB(t))
	if err != nil {
		t.Fatal(err)
	}
	fw, err := wrapper.NewFault(ws, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

func TestFederateReachableSkipsDownSource(t *testing.T) {
	wl, err := wrapper.NewRelational("Library", libraryDB(t))
	if err != nil {
		t.Fatal(err)
	}
	down := faultedShop(t, wrapper.FaultConfig{ErrorRate: 1})
	ig, err := New(wl, down)
	if err != nil {
		t.Fatal(err)
	}

	fed, skipped, err := ig.FederateReachable(context.Background(), "F", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 || skipped[0] != "Shop" {
		t.Fatalf("skipped = %v, want [Shop]", skipped)
	}
	if got := ig.Skipped(); len(got) != 1 || got[0] != "Shop" {
		t.Fatalf("Skipped() = %v, want [Shop]", got)
	}
	// The reachable source federated; the skipped one is absent.
	if _, err := fed.Resolve([]string{"library_books"}); err != nil {
		t.Errorf("library_books missing from degraded federation: %v", err)
	}
	if _, err := fed.Resolve([]string{"shop_items"}); err == nil {
		t.Error("shop_items present despite Shop being unreachable")
	}
	res, err := ig.Query("count(<<library_books>>)")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.Equal(iql.Int(3)) {
		t.Errorf("count over reachable subset = %s, want 3", res.Value)
	}
}

func TestFederateReachableEnforcesMinimum(t *testing.T) {
	wl, err := wrapper.NewRelational("Library", libraryDB(t))
	if err != nil {
		t.Fatal(err)
	}
	down := faultedShop(t, wrapper.FaultConfig{ErrorRate: 1})
	ig, err := New(wl, down)
	if err != nil {
		t.Fatal(err)
	}
	// One of two sources is down; demanding both reachable must fail
	// and leave the integrator un-federated.
	if _, _, err := ig.FederateReachable(context.Background(), "F", 2); err == nil {
		t.Fatal("FederateReachable(min=2) succeeded with a source down")
	}
	if ig.Federated() != nil {
		t.Fatal("failed federation left a federated schema behind")
	}
}

func TestBackfillRecoversHealedSource(t *testing.T) {
	ig, down := degradedLibrary(t, false)

	// While the source is still down, backfill is a no-op.
	recovered, err := ig.Backfill(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("backfill recovered %v with the source still down", recovered)
	}

	// Heal it: backfill federates the source exactly as Federate would
	// have, in one new version, and version 0 keeps its objects.
	down.Set(wrapper.FaultConfig{})
	fed := ig.Federated()
	before := fed.Objects()
	recovered, err = ig.Backfill(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0] != "Shop" {
		t.Fatalf("backfill recovered %v, want [Shop]", recovered)
	}
	if got := ig.Skipped(); len(got) != 0 {
		t.Fatalf("Skipped() = %v after backfill, want empty", got)
	}
	vs := ig.Versions()
	if len(vs) != 2 || vs[0].Schema != fed || vs[1].Version != 1 || ig.Global() != vs[1].Schema {
		t.Fatalf("after backfill the versions are %v, want version 0 and one new version, the latest", vs)
	}
	if got := fed.Objects(); !slices.Equal(got, before) {
		t.Errorf("backfill changed version 0's objects from %v to %v", before, got)
	}
	if got, want := vs[1].Schema.Len(), len(before)+len(down.Schema().Objects()); got != want {
		t.Errorf("the backfill's version holds %d objects, want %d", got, want)
	}
	res, err := ig.Query("count(<<shop_items>>)")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.Equal(iql.Int(2)) {
		t.Errorf("count(<<shop_items>>) after backfill = %s, want 2", res.Value)
	}
}

// TestFederationRefusesCollidingPrefixedNames: Lab's <<x_y>> and Lab_X's
// <<y>> are both <<lab_x_y>> once prefixed. Federation, strict or over
// the reachable sources, refuses them up front, naming the object and
// both sources, and leaves nothing behind — Lab_X counts while it is
// down, so it is never half backfilled later.
func TestFederationRefusesCollidingPrefixedNames(t *testing.T) {
	lab := rel.NewDB("Lab")
	lab.MustCreateTable("x_y", []rel.Column{{Name: "id", Type: rel.Int}}, "id").MustInsert(int64(1))
	labX := rel.NewDB("Lab_X")
	labX.MustCreateTable("a", []rel.Column{{Name: "id", Type: rel.Int}}, "id").MustInsert(int64(2))
	labX.MustCreateTable("y", []rel.Column{{Name: "id", Type: rel.Int}}, "id").MustInsert(int64(3))
	for _, degraded := range []bool{false, true} {
		wl, err := wrapper.NewRelational("Lab", lab)
		if err != nil {
			t.Fatal(err)
		}
		wx, err := wrapper.NewRelational("Lab_X", labX)
		if err != nil {
			t.Fatal(err)
		}
		down, err := wrapper.NewFault(wx, wrapper.FaultConfig{ErrorRate: 1})
		if err != nil {
			t.Fatal(err)
		}
		ig, err := New(wl, down)
		if err != nil {
			t.Fatal(err)
		}
		if degraded {
			_, _, err = ig.FederateReachable(context.Background(), "F", 1)
		} else {
			_, err = ig.Federate("F")
		}
		if err == nil || !strings.Contains(err.Error(), "<<lab_x_y>>") || !strings.Contains(err.Error(), `"Lab"`) || !strings.Contains(err.Error(), `"Lab_X"`) {
			t.Fatalf("degraded %v: federation = %v; want it refused, naming <<lab_x_y>>, Lab and Lab_X", degraded, err)
		}
		if _, ok := ig.Repo().Schema("F"); ok || ig.Federated() != nil || len(ig.Skipped()) != 0 {
			t.Errorf("degraded %v: the refused federation left schema F or skipped sources %v behind", degraded, ig.Skipped())
		}
	}
}

// degradedLibrary federates Library past a Shop that is down, auto-drop
// set to drop.
func degradedLibrary(t *testing.T, drop bool) (*Integrator, *wrapper.Fault) {
	t.Helper()
	wl, err := wrapper.NewRelational("Library", libraryDB(t))
	if err != nil {
		t.Fatal(err)
	}
	down := faultedShop(t, wrapper.FaultConfig{ErrorRate: 1})
	ig, err := New(wl, down)
	if err != nil {
		t.Fatal(err)
	}
	ig.SetAutoDrop(drop)
	if _, _, err := ig.FederateReachable(context.Background(), "F", 1); err != nil {
		t.Fatal(err)
	}
	return ig, down
}

// TestBackfillChangesNoPublishedVersion: a backfill publishes one
// version, made by extending the latest by the recovered source's
// section — its other sections are the latest's, not copies — and
// changes no version published before it: version 0, and a version
// built while the source was skipped, keep their objects and answer as
// they did. Under drop, what an intersection deletes stays out of the
// recovered section.
func TestBackfillChangesNoPublishedVersion(t *testing.T) {
	queries := []string{"count(<<library_books>>)", "count(<<shop_items>>)", "[x | {k, x} <- <<shop_items, price>>]", "count(<<UBook>>)"}
	for _, drop := range []bool{false, true} {
		ig, down := degradedLibrary(t, drop)
		if _, err := ig.Intersect("I1", bookMappings()); err != nil {
			t.Fatal(err)
		}
		down.Set(wrapper.FaultConfig{})
		seen := func() (map[int][]*hdm.Object, map[string]string) {
			objects, answers := map[int][]*hdm.Object{}, map[string]string{}
			for _, sv := range ig.Versions()[:2] {
				objects[sv.Version] = sv.Schema.Objects()
				for _, q := range queries {
					res, err := ig.QueryAt(context.Background(), sv.Version, q)
					answers[fmt.Sprintf("%d %s", sv.Version, q)] = fmt.Sprint(res.Value, res.Warnings, err)
				}
			}
			return objects, answers
		}
		objects, answers := seen()
		prev := ig.comp
		if _, err := ig.Backfill(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got, ans := seen(); !reflect.DeepEqual(got, objects) || !reflect.DeepEqual(ans, answers) {
			t.Errorf("drop %v: backfill changed the published versions from\n%v\n%v\nto\n%v\n%v", drop, objects, answers, got, ans)
		}
		vs := ig.Versions()
		if len(vs) != 3 {
			t.Fatalf("drop %v: backfill published %d versions, want one", drop, len(vs)-2)
		}
		var delta []string
		for _, o := range vs[2].Schema.All() {
			if !vs[1].Schema.Has(o.Scheme) {
				delta = append(delta, o.Scheme.String())
			}
		}
		want := []string{"<<shop_items>>", "<<shop_items, sku>>", "<<shop_items, barcode>>", "<<shop_items, name>>", "<<shop_items, price>>"}
		if drop {
			want = []string{"<<shop_items, sku>>", "<<shop_items, price>>"}
		}
		if vs[2].Schema.Len() != vs[1].Schema.Len()+len(want) || !slices.Equal(delta, want) {
			t.Errorf("drop %v: the backfill's version adds %v to its predecessor's %d objects, holding %d; want %v",
				drop, delta, vs[1].Schema.Len(), vs[2].Schema.Len(), want)
		}
		if c := ig.comp; c.schema != vs[2].Schema || !sameSlice(c.targets, prev.targets) || !sameSlice(c.fed[0], prev.fed[0]) || sameSlice(c.fed[1], prev.fed[1]) {
			t.Errorf("drop %v: the backfill's version does not extend its predecessor's composition", drop)
		}
	}
}

// TestVersionsReadWhileBackfillLands reads every published version's
// objects, outside the integrator's lock as /schemas does, while a
// backfill publishes: it may write nothing a published version holds.
// make flake runs it thirty times under the race detector.
func TestVersionsReadWhileBackfillLands(t *testing.T) {
	ig, down := degradedLibrary(t, false)
	before := ig.Federated().Objects()
	down.Set(wrapper.FaultConfig{})
	var done atomic.Bool
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for last, first := false, true; !last; first = false {
			last = done.Load()
			for _, sv := range ig.Versions() {
				if got := sv.Schema.Objects(); sv.Version == 0 && !slices.Equal(got, before) {
					t.Errorf("version 0 holds %v, not %v", got, before)
					last = true
				}
			}
			if first {
				close(started)
			}
		}
	}()
	<-started
	if got, err := ig.Backfill(context.Background()); err != nil || len(got) != 1 {
		t.Errorf("backfill recovered %v (%v), want [Shop]", got, err)
	}
	done.Store(true)
	wg.Wait()
}

// TestStepRefusesASkippedSourcesName: a skipped source's objects keep
// their federated names for Backfill, so a step whose target takes one
// is refused before it records anything.
func TestStepRefusesASkippedSourcesName(t *testing.T) {
	ig, _ := degradedLibrary(t, false)
	_, err := ig.Intersect("I1", []Mapping{Entity("<<shop_items>>", From("Library", "[{'LIB', k} | k <- <<books>>]"))})
	if err == nil || !strings.Contains(err.Error(), "<<shop_items>>") {
		t.Fatalf("an intersection targeting <<shop_items>> while Shop is skipped = %v, want it refused", err)
	}
	if err := ig.Refine("r", Attribute("<<shop_items, price>>", From("Library", "[{k, x} | {k, x} <- <<books, title>>]"))); err == nil {
		t.Error("a refinement targeting <<shop_items, price>> while Shop is skipped was accepted")
	}
	if _, ok := ig.Repo().Schema("I1"); ok || len(ig.Intersections()) != 0 || ig.GlobalVersion() != 0 {
		t.Errorf("the refused steps left intersections %v, schema I1 %v or version %d behind", ig.Intersections(), ok, ig.GlobalVersion())
	}
}

// TestFederationRefusesATakenName: a federated schema named as a stored
// schema — a source's — is refused before federation records anything.
func TestFederationRefusesATakenName(t *testing.T) {
	wl, err := wrapper.NewRelational("Library", libraryDB(t))
	if err != nil {
		t.Fatal(err)
	}
	ig, err := New(wl, faultedShop(t, wrapper.FaultConfig{ErrorRate: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ig.FederateReachable(context.Background(), "Library", 1); err == nil || !strings.Contains(err.Error(), "already stored") {
		t.Fatalf("federating as Library = %v, want it refused", err)
	}
	if ig.Federated() != nil || len(ig.Skipped()) != 0 || len(ig.federated) != 0 {
		t.Errorf("the refused federation left skipped sources %v or federated objects behind", ig.Skipped())
	}
}
