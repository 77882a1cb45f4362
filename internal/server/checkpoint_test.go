package server

import (
	"context"
	"os"
	"path/filepath"
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
// deterministic). That a checkpoint edited with its length kept is
// decoded afresh is TestSessionOracle's "edit" event.
func TestUnchangedCheckpointDecodesOnce(t *testing.T) {
	const name = "once"
	s, _ := newDurableClient(t, t.TempDir())
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
}
