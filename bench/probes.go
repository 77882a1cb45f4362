package main

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"github.com/dataspace/automed/internal/cache"
	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/ispider"
	"github.com/dataspace/automed/internal/server"
)

// The probes below time mechanisms no query ladder reaches:
// integration steps, the cache substrate, snapshots. They run on one
// fixed fixture — the case study at sizes.probe, ispider.BenchConfig in
// a real run — whatever the workload, so their numbers are comparable
// across the four traced runs and cost each of them about a second.

const probeReps = 5

// probeCore replays the plan by direct calls on fresh integrators.
func probeCore(cfg ispider.Config, seed uint64, put func(string, float64, string)) error {
	sources, err := caseSources(cfg, seed)
	if err != nil {
		return err
	}
	var federate, intersect, refine, global []float64
	for range probeReps {
		ig, err := core.New(sources...)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := ig.Federate("F"); err != nil {
			return err
		}
		federate = append(federate, ms(time.Since(start)))
		for _, st := range ispider.IntersectionPlan() {
			start := time.Now()
			if st.Kind == "intersect" {
				_, err = ig.Intersect(st.Name, st.Mappings)
				intersect = append(intersect, ms(time.Since(start)))
			} else {
				err = ig.Refine(st.Name, st.Refinement)
				refine = append(refine, ms(time.Since(start)))
			}
			if err != nil {
				return err
			}
		}
		start = time.Now()
		if _, err := ig.BuildGlobal(false); err != nil {
			return err
		}
		global = append(global, ms(time.Since(start)))
	}
	put("core.federate_ms", median(federate), "ms")
	put("core.intersect_ms", median(intersect), "ms")
	put("core.refine_ms", median(refine), "ms")
	put("core.build_global_ms", median(global), "ms")
	return nil
}

// probeCache times the cache substrate at the result cache's shipped
// capacity: a hit, and a dependency-tagged invalidation that evicts
// one entry in sixteen.
func probeCache(put func(string, float64, string)) {
	const entries = 4096
	const tags = 16
	keys := make([]string, entries)
	for i := range keys {
		keys[i] = "key-" + strconv.Itoa(i)
	}
	fill := func() *cache.Store[int] {
		st := cache.New[int](cache.Options{MaxEntries: entries})
		for i, k := range keys {
			st.Put(k, i, 64, []string{"tag-" + strconv.Itoa(i%tags)})
		}
		return st
	}
	st := fill()
	get := timeIt(probeReps, func() {
		for _, k := range keys {
			st.Get(k)
		}
	})
	put("cache.get_ns", float64(get.Nanoseconds())/entries, "ns")
	stores := make([]*cache.Store[int], probeReps)
	for i := range stores {
		stores[i] = fill()
	}
	i := 0
	put("cache.invalidate_deps_us", us(timeIt(probeReps, func() {
		stores[i].InvalidateDeps("tag-3")
		i++
	})), "us")
}

// probeStore walks payg_mixed's cycle in process, through the handler
// and a real store: restore, then every step with its autosave, then a
// forced snapshot, counting what each step invalidated.
func probeStore(cfg ispider.Config, seed uint64, scratch string, put func(string, float64, string)) error {
	sources, err := caseSources(cfg, seed)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratch, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv := server.New(server.DefaultConfig())
	if err := srv.OpenStore(dir); err != nil {
		return err
	}
	const name = "probe"
	if _, _, err := newSession(srv, name, sources, nil); err != nil {
		return err
	}
	if _, err := srv.SnapshotSession(name); err != nil {
		return err
	}
	path := srv.Store().Path(name)
	baseline, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	h := srv.Handler()
	post := func(path string, body []byte) (time.Duration, error) {
		start := time.Now()
		status := servePost(h, path, body)
		d := time.Since(start)
		if status < 200 || status > 299 {
			return d, fmt.Errorf("store probe: POST %s: status %d", path, status)
		}
		return d, nil
	}
	var restore, step, snapshot, bytes, invalidated []float64
	plan := ispider.IntersectionPlan()
	for range probeReps {
		if err := os.WriteFile(path, baseline, 0o644); err != nil {
			return err
		}
		d, err := post("/sessions/"+name+"/restore", nil)
		if err != nil {
			return err
		}
		restore = append(restore, ms(d))
		done := "F"
		for _, st := range plan {
			// Warm the answers available so far, so the step has
			// something to evict.
			for _, q := range ispider.Table1Queries() {
				if !ispider.AnswerableAfter(q, done) {
					continue
				}
				if _, err := post("/query", queryBody(name, q.IQL, false)); err != nil {
					return err
				}
			}
			done = st.Name
			d, err := post("/"+st.Kind, stepBody(name, st))
			if err != nil {
				return err
			}
			step = append(step, ms(d))
			info, err := os.Stat(path)
			if err != nil {
				return err
			}
			bytes = append(bytes, float64(info.Size()))
		}
		sess, err := srv.Sessions().Get(name, false)
		if err != nil {
			return err
		}
		// The restored session's caches started empty, so their totals
		// are this cycle's own.
		memo, src := sess.ExtentCacheStats()
		invalidated = append(invalidated,
			float64(sess.ResultCacheStats().Invalidations+memo.Invalidations+src.Invalidations)/float64(len(plan)))
		start := time.Now()
		if _, err := srv.SnapshotSession(name); err != nil {
			return err
		}
		snapshot = append(snapshot, ms(time.Since(start)))
	}
	put("server.restore_ms", median(restore), "ms")
	put("server.step_ms", median(step), "ms")
	put("server.snapshot_ms", median(snapshot), "ms")
	put("server.snapshot_bytes_per_step", median(bytes), "B")
	put("core.invalidated_keys_per_step", median(invalidated), "count")
	return nil
}
