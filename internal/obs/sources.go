package obs

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FetchBoundsMs are the per-source fetch-latency histogram bounds:
// sub-millisecond for in-process sources, out to tens of seconds for
// slow federated backends.
var FetchBoundsMs = []float64{0.25, 1, 5, 25, 100, 500, 2500, 10000}

// sourceStats aggregates one (source, kind) pair's fetch metrics. All
// fields are atomic; Observe takes no lock on the fetch path.
type sourceStats struct {
	fetches atomic.Uint64
	errors  atomic.Uint64
	retries atomic.Uint64
	rows    atomic.Int64
	bytes   atomic.Int64
	counted atomic.Uint64
	lat     *Histogram
}

// Sources is the per-source fetch-metrics registry, keyed by source
// name and wrapper kind. The registry itself is read-mostly (one map
// insert per source ever); per-fetch recording is lock-free.
type Sources struct {
	mu sync.RWMutex
	m  map[[2]string]*sourceStats
}

// NewSources returns an empty registry.
func NewSources() *Sources {
	return &Sources{m: make(map[[2]string]*sourceStats)}
}

func (s *Sources) stats(source, kind string) *sourceStats {
	key := [2]string{source, kind}
	s.mu.RLock()
	st := s.m[key]
	s.mu.RUnlock()
	if st != nil {
		return st
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st = s.m[key]; st == nil {
		st = &sourceStats{lat: NewHistogram(FetchBoundsMs)}
		s.m[key] = st
	}
	return st
}

// Observe records one wrapper fetch. Nil-safe so uninstrumented paths
// (library use without a registry in context) cost one nil check.
func (s *Sources) Observe(source, kind string, d time.Duration, rows, bytes, retries int64, err error) {
	if s == nil {
		return
	}
	st := s.stats(source, kind)
	st.fetches.Add(1)
	if err != nil {
		st.errors.Add(1)
	}
	if retries > 0 {
		st.retries.Add(uint64(retries))
	}
	st.rows.Add(rows)
	st.bytes.Add(bytes)
	st.lat.Observe(d)
}

// ObserveCounted records that the fetch just observed was answered as a
// count taken at the source: one of Fetches, with one row, whose answer
// never crossed as rows.
func (s *Sources) ObserveCounted(source, kind string) {
	if s == nil {
		return
	}
	s.stats(source, kind).counted.Add(1)
}

// SourceSnapshot is a point-in-time copy of one source's fetch metrics.
// Counted is how many of Fetches were counts taken at the source.
type SourceSnapshot struct {
	Source  string
	Kind    string
	Fetches uint64
	Errors  uint64
	Retries uint64
	Rows    int64
	Bytes   int64
	Counted uint64
	Latency HistSnapshot
}

// Snapshot copies every source's metrics, sorted by source then kind.
func (s *Sources) Snapshot() []SourceSnapshot {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	keys := make([][2]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	s.mu.RUnlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]SourceSnapshot, 0, len(keys))
	for _, k := range keys {
		s.mu.RLock()
		st := s.m[k]
		s.mu.RUnlock()
		if st == nil {
			continue
		}
		out = append(out, SourceSnapshot{
			Source:  k[0],
			Kind:    k[1],
			Fetches: st.fetches.Load(),
			Errors:  st.errors.Load(),
			Retries: st.retries.Load(),
			Rows:    st.rows.Load(),
			Bytes:   st.bytes.Load(),
			Counted: st.counted.Load(),
			Latency: st.lat.Snapshot(),
		})
	}
	return out
}

// WithSources attaches the registry to a request context so the query
// layer's fetches record into it.
func WithSources(ctx context.Context, s *Sources) context.Context {
	return context.WithValue(ctx, sourcesKey, s)
}

// SourcesFrom returns the context's registry, or nil (Observe on nil is
// a no-op).
func SourcesFrom(ctx context.Context) *Sources {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(sourcesKey).(*Sources)
	return s
}
