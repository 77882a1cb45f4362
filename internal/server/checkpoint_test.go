package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/ispider"
	"github.com/dataspace/automed/internal/wrapper"
)

// Tests of a restore of the checkpoint its session read: it decodes
// nothing of the checkpoint again, builds the session a restore from
// nothing builds, and writes nothing through what it shares.

// sessionView is what a client sees of one session: Table 1 at every
// version steps publish, /schemas and /report.
func sessionView(t *testing.T, c *testClient, name string, steps []ispider.PlanStep) []string {
	t.Helper()
	view := table1Answers(t, c, name, steps)
	for _, path := range []string{"/schemas", "/report"} {
		view = append(view, canonicalAnswer(t, c.must("GET", path+"?session="+url.QueryEscape(name), nil, http.StatusOK)))
	}
	return view
}

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

// TestPersistRestoreReusesCheckpoint: a pay-as-you-go history — the
// federated checkpoint restored, a prefix of the plan stepped and
// journaled, the checkpoint restored, a longer prefix, and a restore of
// the checkpoint with that prefix's records — where every restore after
// the first takes the checkpoint its session read rather than decoding
// it. Each restored session shows what a server that restored a copy of
// the same file from nothing shows, while a query runs on whichever
// session the name stands for (under -race, the check that what
// sessions share is only read). At the end the checkpoint they shared
// is as it was read, and its repository image still encodes as the
// file's: no step wrote through a clone.
func TestPersistRestoreReusesCheckpoint(t *testing.T) {
	const name = "reuse"
	s, c := newDurableClient(t, t.TempDir())
	sess := newSessionOver(t, s, name, caseSources(t))
	if _, err := sess.Federate(context.Background(), "F", false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SnapshotSession(name); err != nil {
		t.Fatal(err)
	}
	path := s.Store().Path(name)
	baseline, err := os.ReadFile(path)
	if err != nil {
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

	q := ispider.Table1Queries()[6].IQL // Q7: answerable at every version
	stop, asked := make(chan struct{}), make(chan struct{}, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur, err := s.Sessions().Get(name, false)
			if err == nil {
				var ig *core.Integrator
				if ig, err = cur.integrator(); err == nil {
					ig.Processor().InvalidateCache() // so every ask evaluates
					_, err = ig.Query(q)
				}
			}
			if err != nil {
				t.Error(err)
				return
			}
			select {
			case asked <- struct{}{}:
			default:
			}
		}
	}()
	<-asked

	var read *readCheckpoint
	restore := func(stage string, steps []ispider.PlanStep) {
		t.Helper()
		c.must("POST", "/sessions/"+name+"/restore", nil, http.StatusOK)
		switch got := current().file.read; {
		case got == nil:
			t.Fatalf("%s: the restored session holds no checkpoint", stage)
		case read == nil:
			read = got
		case got != read:
			t.Errorf("%s: the unchanged checkpoint was decoded again", stage)
		}
		_, fresh := restoredFromNothing(t, path)
		if got, want := sessionView(t, c, name, steps), sessionView(t, fresh, name, steps); !slices.Equal(got, want) {
			t.Errorf("%s: the restored session differs from one restored from nothing:\n got %v\nwant %v", stage, got, want)
		}
	}
	plan := ispider.IntersectionPlan()
	for i, prefix := range [][]ispider.PlanStep{plan[:2], plan} {
		// Each cycle starts from the checkpoint alone, as payg_mixed's do.
		if err := os.WriteFile(path, baseline, 0o644); err != nil {
			t.Fatal(err)
		}
		restore(fmt.Sprintf("cycle %d", i+1), nil)
		for _, st := range prefix {
			cur := current()
			applyStep(t, cur, st)
			s.persist(cur)
		}
	}
	if info, err := os.Stat(path); err != nil || info.Size() <= int64(len(baseline)) {
		t.Fatalf("the steps were not journaled after the checkpoint (%v)", err)
	}
	restore("the checkpoint and the whole plan's records", plan)
	close(stop)
	wg.Wait()

	if !bytes.Equal(read.data, baseline) {
		t.Error("the held checkpoint is not the file's checkpoint")
	}
	plain, err := decodeState(baseline, "baseline", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(read.state.Integrator.Repo, plain.Integrator.Repo) {
		t.Error("the held checkpoint's repository document changed")
	}
	ig, err := core.Import(read.state.Integrator)
	if err != nil {
		t.Fatal(err)
	}
	if doc, err := ig.Repo().MarshalJSON(); err != nil || !bytes.Equal(doc, plain.Integrator.Repo) {
		t.Errorf("the held repository image no longer encodes as the checkpoint's repository (%v):\n got %.300s\nwant %.300s", err, doc, plain.Integrator.Repo)
	}
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
