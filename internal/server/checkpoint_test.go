package server

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/dataspace/automed/internal/ispider"
	"github.com/dataspace/automed/internal/wrapper"
)

// Tests of a restore of the checkpoint its session read: it decodes
// nothing of the checkpoint again. That it builds the session a restore
// from nothing builds, and writes nothing through what it shares, is
// TestSessionOracle's.

// restoredFromNothing starts a new server over a copy of a session file
// (RestoreSessions) and returns it with its client.
func restoredFromNothing(t *testing.T, path string) (*Server, *testClient) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(path)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return newDurableClient(t, dir)
}

// TestUnchangedCheckpointDecodesOnce: on the benchmark's case study, a
// restore of the checkpoint its session read allocates under a quarter
// of what a restore that decodes it does (a count, not a time, so it is
// deterministic); and a checkpoint edited in one digit, its length kept,
// is decoded afresh, and the session restored from it answers as a
// server that restored the edited file from nothing does.
func TestUnchangedCheckpointDecodesOnce(t *testing.T) {
	const name = "once"
	s, c := newDurableClient(t, t.TempDir())
	pedro, gpmdb, pepseeker, err := ispider.Wrappers(ispider.BenchConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess := newSessionOver(t, s, name, []wrapper.Wrapper{pedro, gpmdb, pepseeker})
	if _, err := sess.Federate(context.Background(), "F", false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SnapshotSession(name); err != nil {
		t.Fatal(err)
	}
	current := func() *Session {
		t.Helper()
		cur, err := s.Sessions().Get(name, false)
		if err != nil {
			t.Fatal(err)
		}
		return cur
	}
	restore := func() {
		if _, err := s.restoreSession(name); err != nil {
			t.Fatal(err)
		}
	}
	decoding := testing.AllocsPerRun(3, func() {
		current().file.read = nil // as if the session had written its file
		restore()
	})
	reusing := testing.AllocsPerRun(3, restore)
	t.Logf("a restore allocates %.0f times decoding the checkpoint, %.0f reusing it", decoding, reusing)
	if reusing >= decoding/4 {
		t.Errorf("a restore of the unchanged checkpoint allocates %.0f times, a decoding one %.0f: want under a quarter", reusing, decoding)
	}

	plan := ispider.IntersectionPlan()
	answers := func(c *testClient, sess *Session) []string {
		t.Helper()
		for _, st := range plan {
			applyStep(t, sess, st)
		}
		return table1Answers(t, c, name, plan)
	}
	path := s.Store().Path(name)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cell := []byte(`"` + ispider.SharedAccession + `"`)
	at := bytes.Index(file, cell)
	if at < 0 || bytes.IndexByte(file, recordSep) >= 0 {
		t.Fatalf("the file is not one checkpoint holding %s", cell)
	}
	before := answers(c, current())
	restore()
	held := current().file.read
	edited := slices.Clone(file)
	edited[at+2] = '9' // "P00042" → "P90042": one digit, the same length
	if err := os.WriteFile(path, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	restore()
	if current().file.read == held {
		t.Fatal("a checkpoint edited in one digit was taken for the one read before")
	}
	got := answers(c, current())
	fresh, freshClient := restoredFromNothing(t, path)
	freshSess, err := fresh.Sessions().Get(name, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := answers(freshClient, freshSess); !slices.Equal(got, want) {
		t.Errorf("after the edit, the restored session answers differently from one restored from nothing:\n got %v\nwant %v", got, want)
	}
	if slices.Equal(got, before) {
		t.Error("the edit does not show in any Table 1 answer")
	}
}
