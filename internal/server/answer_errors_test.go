package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/wrapper"
)

// An answer is encoded while it is evaluated, so what can go wrong with
// the one and with the other now happens in one pass. These tests pin,
// through the handler, that a client cannot tell: an answer JSON cannot
// carry is still found only by a query that evaluates (500, a request
// id, nothing cached), an evaluation error further on in the scan still
// comes first, the step limit trips at the count it tripped at with the
// words it tripped with, a cancelled request ends as it ended — and
// after each of them the next answer through the same recycled buffers
// and arenas is right to the byte.

const probeRows = 3000

// probeServer serves one static source: readings of which the second is
// NaN and the third a string, and a table large enough that a scan of it
// polls its context several times.
func probeServer(t *testing.T, cfg Config) (*Server, *Session) {
	t.Helper()
	srv := New(cfg)
	sess, err := srv.Sessions().Get("default", true)
	if err != nil {
		t.Fatal(err)
	}
	src := wrapper.NewStatic("Probe")
	if err := src.Add(hdm.MustScheme("<<reading, level>>"), hdm.Link, "", "", iql.Bag(
		iql.Tuple(iql.Int(1), iql.Float(0.5)),
		iql.Tuple(iql.Int(2), iql.Float(math.NaN())),
		iql.Tuple(iql.Int(3), iql.Str("text")),
	)); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"mz", "intensity"} {
		els := make([]iql.Value, probeRows)
		for i := range els {
			els[i] = iql.Tuple(iql.Int(int64(i)), iql.Float(float64((i*7919)%probeRows)/8))
		}
		if err := src.Add(hdm.MustScheme("<<ion, "+col+">>"), hdm.Link, "", "", iql.BagOf(els)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.AddSource(src); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Federate(context.Background(), "F", false); err != nil {
		t.Fatal(err)
	}
	return srv, sess
}

// ionQuery is Q7's shape over the probe's table: a join on the key, a
// tuple head with floats in it.
const ionQuery = "[{k, mz, i} | {k, mz} <- <<probe_ion, mz>>; {k2, i} <- <<probe_ion, intensity>>; k2 = k]"

// serve posts one query to the handler in process, under ctx.
func serve(t *testing.T, srv *Server, ctx context.Context, body map[string]any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.NewRequestWithContext(ctx, http.MethodPost, "/query", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, r)
	return w.Code, w.Body.Bytes()
}

// flippingContext is done once it has been asked whether it is so often:
// a cancellation that arrives at the same step of the same evaluation on
// every run. Asked never, it only counts.
type flippingContext struct {
	context.Context
	asked, after *int
}

func (c flippingContext) Err() error {
	*c.asked++
	if *c.after > 0 && *c.asked > *c.after {
		return context.Canceled
	}
	return nil
}

func TestAnswerErrorOrderAndLimits(t *testing.T) {
	// No query deadline: the handler then evaluates under the request's
	// own context, which the cancellation case needs to be the test's.
	cfg := DefaultConfig()
	cfg.QueryTimeout = 0
	srv, sess := probeServer(t, cfg)
	ig, err := sess.integrator()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ig.QueryExprAt(context.Background(), core.CurrentVersion, iql.MustParse(ionQuery))
	if err != nil || ref.Value.Len() != probeRows {
		t.Fatalf("reference: %d rows, err %v", ref.Value.Len(), err)
	}
	// nextAnswerIsRight asks the large query past the result cache and
	// holds the response to the reference: whatever the case before it
	// left in the pooled buffers and arenas does not show.
	nextAnswerIsRight := func(t *testing.T) {
		t.Helper()
		status, got := serve(t, srv, context.Background(), map[string]any{"query": ionQuery, "no_cache": true})
		if status != http.StatusOK {
			t.Fatalf("next answer: status %d: %s", status, got)
		}
		want, err := refBody(ref, got)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffBodies(got, want); d != "" {
			t.Fatalf("next answer: %s", d)
		}
	}
	nextAnswerIsRight(t)

	// How often a whole evaluation of the large query asks its context,
	// so that the cancellation below lands in the middle of the scan.
	var asked, never int
	if status, body := serve(t, srv, flippingContext{context.Background(), &asked, &never},
		map[string]any{"query": ionQuery, "no_cache": true}); status != http.StatusOK {
		t.Fatalf("counting run: status %d: %s", status, body)
	}
	if asked < 8 {
		t.Fatalf("the large query asked its context %d times: too few to cancel it mid-scan", asked)
	}
	mid := asked / 2
	asked = 0

	for _, tc := range []struct {
		name   string
		ctx    context.Context
		query  string
		status int
		errHas string
	}{
		{"a NaN row alone", context.Background(),
			"[{k, x} | {k, x} <- <<probe_reading, level>>; k < 3]",
			http.StatusInternalServerError, "server: encoding response: json: unsupported value: NaN"},
		{"a NaN row before a row whose filter does not type-check", context.Background(),
			"[{k, x} | {k, x} <- <<probe_reading, level>>; x * 0.0 <> 1.0]",
			http.StatusBadRequest, `iql: "*" needs numbers, got string and float`},
		{"a NaN in the first of two bags, a type error in the second", context.Background(),
			"{[x | {k, x} <- <<probe_reading, level>>; k < 3], [x + 1 | {k, x} <- <<probe_reading, level>>]}",
			http.StatusBadRequest, `iql: "+" needs numbers, got string and int`},
		{"cancelled mid-scan", flippingContext{context.Background(), &asked, &mid},
			ionQuery,
			http.StatusServiceUnavailable, "iql: evaluation cancelled: context canceled"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for n := 0; n < 2; n++ {
				asked = 0
				// Cacheable, so that an entry would show if one were made.
				status, body := serve(t, srv, tc.ctx, map[string]any{"query": tc.query})
				var apiErr apiError
				if err := json.Unmarshal(body, &apiErr); err != nil {
					t.Fatalf("ask %d: %v in %s", n, err, body)
				}
				if status != tc.status || apiErr.Error != tc.errHas || apiErr.RequestID == "" {
					t.Fatalf("ask %d: status %d, body %s; want %d, %q and a request id", n, status, body, tc.status, tc.errHas)
				}
			}
			if st := sess.ResultCacheStats(); st.Len != 0 || st.Hits != 0 {
				t.Errorf("result cache after two failed answers: %+v, want no entry and no hit", st)
			}
			nextAnswerIsRight(t)
		})
	}
}

// TestStepLimitTripsWhereItDid: the daemon's -max-steps bounds an
// encoded evaluation at the count it bounds the materialising one, with
// the same words: one step below what the reference needs fails, that
// many pass.
func TestStepLimitTripsWhereItDid(t *testing.T) {
	// The reference's count, cold: the least limit under which the
	// materialising path answers on a session that has answered nothing.
	needs := func(limit int) error {
		cfg := DefaultConfig()
		cfg.MaxSteps = limit
		_, sess := probeServer(t, cfg)
		ig, err := sess.integrator()
		if err != nil {
			t.Fatal(err)
		}
		_, err = ig.QueryExprAt(context.Background(), core.CurrentVersion, iql.MustParse(ionQuery))
		return err
	}
	lo, hi := 1, 100*probeRows // fails at lo, passes at hi
	if needs(lo) == nil || needs(hi) != nil {
		t.Fatalf("the reference passes a limit of %d steps or fails one of %d", lo, hi)
	}
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; needs(mid) == nil {
			hi = mid
		} else {
			lo = mid
		}
	}
	wantErr := needs(hi - 1)
	if wantErr == nil || !strings.Contains(wantErr.Error(), fmt.Sprintf("exceeded %d steps", hi-1)) {
		t.Fatalf("the reference under a limit of %d steps: %v", hi-1, wantErr)
	}

	for _, limit := range []int{hi - 1, hi} {
		cfg := DefaultConfig()
		cfg.MaxSteps = limit
		srv, _ := probeServer(t, cfg)
		status, body := serve(t, srv, context.Background(), map[string]any{"query": ionQuery, "no_cache": true})
		if limit == hi {
			if status != http.StatusOK {
				t.Errorf("under the %d steps the reference needs: status %d: %s", limit, status, body)
			}
			continue
		}
		var apiErr apiError
		if err := json.Unmarshal(body, &apiErr); err != nil {
			t.Fatalf("%v in %s", err, body)
		}
		if status != http.StatusBadRequest || apiErr.Error != wantErr.Error() {
			t.Errorf("one step short of the %d the reference needs: status %d, %q; want 400, %q", hi, status, apiErr.Error, wantErr)
		}
	}
}
