package core

import (
	"context"
	"strings"
	"testing"

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
	wl, err := wrapper.NewRelational("Library", libraryDB(t))
	if err != nil {
		t.Fatal(err)
	}
	down := faultedShop(t, wrapper.FaultConfig{ErrorRate: 1})
	ig, err := New(wl, down)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ig.FederateReachable(context.Background(), "F", 1); err != nil {
		t.Fatal(err)
	}

	// While the source is still down, backfill is a no-op.
	recovered, err := ig.Backfill(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("backfill recovered %v with the source still down", recovered)
	}

	// Heal it: backfill folds the source into the federation exactly
	// as Federate would have.
	down.Set(wrapper.FaultConfig{})
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
