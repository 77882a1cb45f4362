package server

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dataspace/automed/internal/wrapper"
)

// The invariants of per-session persistence (lockSession): two sessions
// never wait for each other, one session's saves and restores still
// happen one at a time, and the store pointer is safely published. The
// tests park a checkpoint where it is slowest to reach otherwise —
// inside a source's Snapshot, under the session's persistence lock —
// and wait on events, never on the clock; the one timeout is how a
// deadlock fails the test instead of hanging it.

// gatedSource is a source whose next Snapshot after it is armed parks
// until the test releases it. It is not one of the wrapper package's memoised
// kinds, so every save of its session asks it.
type gatedSource struct {
	wrapper.Wrapper
	armed   atomic.Bool
	entered chan struct{} // closed when a Snapshot has parked
	release chan struct{} // closed by the test to let it go
}

func (g *gatedSource) Snapshot() (*wrapper.Snapshot, error) {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return g.Wrapper.(wrapper.Snapshotter).Snapshot()
}

// parkedSave is a durable server on which session "A" has acknowledged
// nothing past the registration of its sources (an unfederated file)
// and is in the middle of the autosave of its federation — a
// checkpoint: the federation's request is parked in its source's
// Snapshot, holding A's persistence lock.
type parkedSave struct {
	s    *Server
	c    *testClient
	gate *gatedSource
	// step receives the status of A's parked step once it is answered.
	step chan int
}

func parkSave(t *testing.T) *parkedSave {
	t.Helper()
	s, c := newDurableClient(t, t.TempDir())
	registerBookstore(c, "A", 2)
	sess, err := s.Sessions().Get("A", false)
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedSource{entered: make(chan struct{}), release: make(chan struct{})}
	sess.mu.Lock()
	gate.Wrapper = sess.wrappers[0]
	sess.wrappers[0] = gate
	sess.mu.Unlock()

	p := &parkedSave{s: s, c: c, gate: gate, step: make(chan int, 1)}
	gate.armed.Store(true)
	go func() {
		status, _ := c.do("POST", "/federate", map[string]any{"session": "A", "name": "F"})
		p.step <- status
	}()
	t.Cleanup(p.releaseSave) // never leave the handler parked, whatever failed
	p.within(t, "A's step reaching its autosave", func() { <-gate.entered })
	return p
}

// releaseSave lets the parked save go; safe to call twice.
func (p *parkedSave) releaseSave() {
	select {
	case <-p.gate.release:
	default:
		close(p.gate.release)
	}
}

// finishStep releases the save and waits for A's step to be answered.
func (p *parkedSave) finishStep(t *testing.T) {
	t.Helper()
	p.releaseSave()
	p.within(t, "A's step being answered", func() {
		if status := <-p.step; status != http.StatusCreated {
			t.Errorf("A's step = %d, want 201", status)
		}
	})
}

// within runs f, and if f has not returned after a time no correct run
// comes near — it waits for a lock that is never released — fails the
// test and releases the save so that it can end.
func (p *parkedSave) within(t *testing.T, what string, f func()) {
	t.Helper()
	watchdog := time.AfterFunc(30*time.Second, func() {
		t.Errorf("%s did not finish while session A's save was parked", what)
		p.releaseSave()
	})
	defer watchdog.Stop()
	f()
}

// diskVersion is the global schema version a session's file restores
// to: its checkpoint's, with the steps recorded after it taken.
func diskVersion(t *testing.T, s *Server, name string) int {
	t.Helper()
	state, err := loadState(s.Store(), name)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sessionFromState(state, DefaultConfig(), newCaches(0))
	if err != nil {
		t.Fatal(err)
	}
	return sess.version()
}

// otherSession returns a session name whose persistence lock is (or is
// not) the stripe A's is: the table is keyed by a seeded hash.
func otherSession(s *Server, shared bool) string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("B%d", i)
		if (s.stripe(name) == s.stripe("A")) == shared {
			return name
		}
	}
}

// started spins until the server has counted a request beyond before:
// the request a goroutine is about to make has reached the handler.
func started(s *Server, before uint64) {
	for s.metrics.requestsTotal.Load() <= before {
		runtime.Gosched()
	}
}

// TestPersistSessionsIndependently: while A's save is parked, another
// session's step (with its autosave), explicit snapshot and restore all
// complete; and A's file is the acknowledged step's once it is.
func TestPersistSessionsIndependently(t *testing.T) {
	p := parkSave(t)
	b := otherSession(p.s, false)
	p.within(t, "session B's workflow", func() {
		registerBookstore(p.c, b, 2)
		p.c.must("POST", "/federate", map[string]any{"session": b, "name": "F"}, http.StatusCreated)
		p.c.must("POST", "/intersect", map[string]any{"session": b, "name": "I1", "mappings": ubookMappings}, http.StatusCreated)
		p.c.must("POST", "/sessions/"+b+"/snapshot", nil, http.StatusOK)
		if res := p.c.must("POST", "/sessions/"+b+"/restore", nil, http.StatusOK); res["version"].(float64) != 1 {
			t.Errorf("B restored at version %v, want 1", res["version"])
		}
	})
	if v := diskVersion(t, p.s, "A"); v != -1 {
		t.Errorf("A's file is at version %d while its federation is unacknowledged, want -1", v)
	}
	p.finishStep(t)
	if v := diskVersion(t, p.s, "A"); v != 0 {
		t.Errorf("A's file is at version %d after its federation was acknowledged, want 0", v)
	}
	if m := p.s.metricsSnapshot(); m.SnapshotErrs != 0 {
		t.Errorf("snapshot errors: %d", m.SnapshotErrs)
	}
}

// TestPersistSharedStripe: two names that hash to one stripe wait
// for each other and nothing worse — B's save completes once A's does.
func TestPersistSharedStripe(t *testing.T) {
	p := parkSave(t)
	b := otherSession(p.s, true)
	registered := make(chan int, 1)
	go func() {
		status, _ := p.c.do("POST", "/sources", map[string]any{"session": b, "name": "Library", "tables": []map[string]any{{
			"name": "books", "columns": []string{"id:int", "isbn", "title"}, "rows": [][]any{{1, "978-1", "Book"}}}}})
		registered <- status // parked in its autosave until A's is done
	}()
	p.finishStep(t)
	p.within(t, "session B's registration", func() {
		if status := <-registered; status != http.StatusCreated {
			t.Errorf("B's registration = %d, want 201", status)
		}
	})
	if v := diskVersion(t, p.s, b); v != -1 {
		t.Errorf("B's file holds version %d, want an unfederated session", v)
	}
}

// TestPersistOneSessionSerialised: a restore of A issued while A's save is
// parked completes only after it, reads the file that save wrote, and
// leaves registry and disk agreeing; the file is never older than the
// last acknowledged step, checkpoint or step record.
func TestPersistOneSessionSerialised(t *testing.T) {
	p := parkSave(t)
	before := p.s.metrics.requestsTotal.Load()
	restored := make(chan map[string]any, 1)
	go func() {
		_, res := p.c.do("POST", "/sessions/A/restore", nil)
		restored <- res
	}()
	started(p.s, before)
	select {
	case res := <-restored:
		t.Fatalf("A was restored (%v) while its save was parked", res)
	default:
	}
	p.finishStep(t)
	if v := diskVersion(t, p.s, "A"); v != 0 {
		t.Fatalf("A's file is at version %d after its federation was acknowledged, want 0", v)
	}
	p.within(t, "A's restore", func() {
		if res := <-restored; res["version"] != float64(0) {
			t.Errorf("A restored as %v, want version 0: the restore read the file before the save it waited for wrote it", res)
		}
	})
	sess, err := p.s.Sessions().Get("A", false)
	if err != nil {
		t.Fatal(err)
	}
	if mem, disk := sess.version(), diskVersion(t, p.s, "A"); mem != 0 || disk != 0 {
		t.Errorf("registry at version %d, disk at %d, want 0 and 0", mem, disk)
	}
	// The restored session steps and autosaves like any other: a step
	// record appended to the file it was restored from.
	p.c.must("POST", "/intersect", map[string]any{"session": "A", "name": "I1", "mappings": ubookMappings}, http.StatusCreated)
	if v := diskVersion(t, p.s, "A"); v != 1 {
		t.Errorf("A's file is at version %d after the restored session's step, want 1", v)
	}
}

// TestPersistRestoreSessionsWaits: RestoreSessions issued while a save
// is parked installs nothing until the save is done, then installs every
// file as that save left it.
func TestPersistRestoreSessionsWaits(t *testing.T) {
	p := parkSave(t)
	b := otherSession(p.s, false)
	registerBookstore(p.c, b, 2)
	type outcome struct {
		n   int
		err error
	}
	restored := make(chan outcome, 1)
	go func() {
		n, err := p.s.RestoreSessions()
		restored <- outcome{n, err}
	}()
	// RestoreSessions takes the stripes in order and stops at A's, which
	// the parked save holds; once it holds the first, it has begun.
	if first := &p.s.persistMu[0]; first != p.s.stripe("A") {
		for first.TryLock() {
			first.Unlock()
			runtime.Gosched()
		}
	}
	select {
	case o := <-restored:
		t.Fatalf("RestoreSessions returned %+v while a save was parked", o)
	default:
	}
	p.finishStep(t)
	p.within(t, "RestoreSessions", func() {
		if o := <-restored; o.err != nil || o.n != 2 {
			t.Errorf("RestoreSessions = %d, %v; want 2 sessions", o.n, o.err)
		}
	})
	sess, err := p.s.Sessions().Get("A", false)
	if err != nil {
		t.Fatal(err)
	}
	if mem, disk := sess.version(), diskVersion(t, p.s, "A"); mem != 0 || disk != 0 {
		t.Errorf("registry at version %d, disk at %d, want 0 and 0", mem, disk)
	}
}

// TestPersistDrainWaits: a drain begun while a save is parked waits for
// the step that owns it, then flushes every session.
func TestPersistDrainWaits(t *testing.T) {
	p := parkSave(t)
	b := otherSession(p.s, false)
	registerBookstore(p.c, b, 2)
	if err := os.Remove(p.s.Store().Path(b)); err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() { drained <- p.s.Drain(context.Background()) }()
	for !p.s.Draining() {
		runtime.Gosched()
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) while an admitted step was parked in its save", err)
	default:
	}
	p.finishStep(t)
	p.within(t, "Drain", func() {
		if err := <-drained; err != nil {
			t.Errorf("Drain: %v", err)
		}
	})
	if v := diskVersion(t, p.s, "A"); v != 0 {
		t.Errorf("A's file is at version %d after the drain, want 0", v)
	}
	if v := diskVersion(t, p.s, b); v != -1 {
		t.Errorf("the drain did not flush B: version %d", v)
	}
}

// TestPersistOpenStoreRaces: OpenStore may be called while sessions
// save and while Store() is read; under -race this is the check that
// the store pointer is safely published. Every OpenStore gets a
// directory of its own: opening a directory sweeps its temporaries, and
// a save in flight there would lose its own.
func TestPersistOpenStoreRaces(t *testing.T) {
	s, c := newDurableClient(t, t.TempDir())
	registerBookstore(c, "", 2)
	c.must("POST", "/federate", map[string]any{"name": "F"}, http.StatusCreated)
	sess, err := s.Sessions().Get("", false)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, work := range []func(){
		func() { s.persist(sess) },
		func() {
			if _, err := s.SnapshotSession("default"); err != nil {
				t.Errorf("SnapshotSession: %v", err)
			}
		},
		func() {
			if s.Store() == nil {
				t.Error("Store() = nil with a store open")
			}
		},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					work()
				}
			}
		}()
	}
	for i := 0; i < 8; i++ {
		if err := s.OpenStore(t.TempDir()); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	if m := s.metricsSnapshot(); m.SnapshotErrs != 0 {
		t.Errorf("snapshot errors: %d", m.SnapshotErrs)
	}
	if _, err := s.SnapshotSession("default"); err != nil {
		t.Fatal(err)
	}
	if v := diskVersion(t, s, "default"); v != 0 {
		t.Errorf("the last store opened holds version %d, want 0", v)
	}
}
