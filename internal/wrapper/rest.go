package wrapper

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	neturl "net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/obs"
)

// RESTCollection declares one collection served by a JSON/REST source;
// its JSON form is a "collections" entry of the daemon's POST /sources.
type RESTCollection struct {
	// Name is the collection (and nodal object) name.
	Name string `json:"name"`
	// Key names the field holding each record's identifier; defaults
	// to "id".
	Key string `json:"key,omitempty"`
	// Path is the endpoint-relative path serving the collection as a
	// JSON array of flat objects; defaults to "/<name>".
	Path string `json:"path,omitempty"`
	// Fields lists the record fields to expose as <<c, f>> link
	// objects. Empty means infer them from one fetch at construction.
	Fields []string `json:"fields,omitempty"`
}

// RESTConfig configures a JSON/REST data source.
type RESTConfig struct {
	// Endpoint is the base URL; collection paths are appended to it.
	Endpoint string
	// Collections declares the served collections. Empty means
	// discover them from a GET of the endpoint itself, which must
	// return a JSON object mapping collection names to arrays of flat
	// objects.
	Collections []RESTCollection
	// Timeout bounds each HTTP fetch (default 10s).
	Timeout time.Duration
	// MaxBytes bounds each response body (default 8 MiB); larger
	// responses fail the fetch rather than exhaust memory.
	MaxBytes int64
	// RetryBackoff is the base delay before the single retry (default
	// 100ms, jittered ±50%). A 429 or 503 carrying a Retry-After header
	// overrides it, capped at Timeout. Not persisted in snapshots.
	RetryBackoff time.Duration
	// Client optionally overrides the HTTP client (tests inject
	// in-memory transports; production setups add auth or pooling).
	Client *http.Client
}

// withDefaults gives the settings left at zero their defaults: a
// constructed wrapper's and a restored one's alike.
func (c RESTConfig) withDefaults() RESTConfig {
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 8 << 20
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	return c
}

// restColl is the resolved shape of one collection.
type restColl struct {
	name   string
	key    string
	path   string
	fields []string
}

// REST wraps a JSON-over-HTTP data source: each collection becomes a
// nodal <<c>> object whose extent is the bag of record keys, and each
// field a link <<c, f>> object of {key, value} pairs — the same
// conventions as the relational wrappers, so REST participants join
// integrations symmetrically. Every extent fetch is one GET of the
// collection's endpoint with a timeout, a single retry on transport
// errors and 5xx responses, and a response-size budget. A wrapper
// restored from a snapshot additionally carries the snapshot's
// materialised extents and degrades to them when the endpoint is
// unreachable.
type REST struct {
	remote
	cfg    RESTConfig
	client *http.Client
	colls  map[string]restColl
	order  []string
}

// NewREST builds a REST wrapper, fetching the endpoint as needed to
// discover collections or infer undeclared fields.
func NewREST(name string, cfg RESTConfig) (*REST, error) {
	return NewRESTContext(context.Background(), name, cfg)
}

// NewRESTContext is NewREST under a caller-supplied context: the
// discovery and field-inference fetches abort as soon as ctx is
// cancelled, so a server handler building a wrapper against a dead
// endpoint stops when its client disconnects instead of pinning the
// request for the full wrapper timeout.
func NewRESTContext(ctx context.Context, name string, cfg RESTConfig) (*REST, error) {
	if name == "" {
		return nil, fmt.Errorf("wrapper: rest: source name is required")
	}
	if cfg.Endpoint == "" {
		return nil, fmt.Errorf("wrapper: rest: source %q: endpoint is required", name)
	}
	cfg = cfg.withDefaults()
	w := &REST{remote: remote{name: name}, cfg: cfg, client: cfg.Client, colls: make(map[string]restColl)}
	if w.client == nil {
		w.client = &http.Client{}
	}
	ctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()
	var colls []restColl
	var err error
	if len(cfg.Collections) == 0 {
		colls, err = w.discover(ctx)
	} else {
		colls, err = w.declared(ctx, cfg.Collections)
	}
	if err != nil {
		return nil, err
	}
	if err := w.buildSchema(colls); err != nil {
		return nil, err
	}
	return w, nil
}

// declared resolves explicitly declared collections, fetching once to
// infer the fields of any collection that does not declare them.
func (w *REST) declared(ctx context.Context, specs []RESTCollection) ([]restColl, error) {
	out := make([]restColl, 0, len(specs))
	for _, spec := range specs {
		if spec.Name == "" {
			return nil, fmt.Errorf("wrapper: rest: source %q: collection name is required", w.name)
		}
		c := restColl{name: spec.Name, key: spec.Key, path: normalizePath(spec.Path, spec.Name), fields: append([]string(nil), spec.Fields...)}
		if c.key == "" {
			c.key = "id"
		}
		if len(c.fields) == 0 {
			d := restDecoder{names: make(map[string]bool)}
			if _, err := w.chain(c, &d, func(err error) error {
				return fmt.Errorf("wrapper: rest: source %q: inferring fields of %q: %w", w.name, c.name, err)
			}).collect(ctx); err != nil {
				return nil, err
			}
			c.fields = d.fields()
		}
		if !slices.Contains(c.fields, c.key) {
			c.fields = append(c.fields, c.key)
			sort.Strings(c.fields)
		}
		out = append(out, c)
	}
	return out, nil
}

// discover lists collections from a GET of the endpoint root, which
// must return an object mapping collection names to arrays of flat
// records; keys default to "id" when present, else the first field.
func (w *REST) discover(ctx context.Context) ([]restColl, error) {
	data, _, err := w.getPage(ctx, w.url(""), 0)
	if err != nil {
		return nil, fmt.Errorf("wrapper: rest: source %q: discovering collections: %w", w.name, err)
	}
	var root map[string]json.RawMessage
	if err := json.Unmarshal(data, &root); err != nil {
		return nil, fmt.Errorf("wrapper: rest: source %q: discovering collections: endpoint root is not a JSON object: %w", w.name, err)
	}
	names := make([]string, 0, len(root))
	for n := range root {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]restColl, 0, len(names))
	for _, n := range names {
		d := restDecoder{names: make(map[string]bool)}
		if _, err := d.page(root[n], w.cfg.MaxBytes, nil); err != nil {
			return nil, fmt.Errorf("wrapper: rest: source %q: collection %q: %w", w.name, n, err)
		}
		fields := d.fields()
		key := "id"
		if !slices.Contains(fields, key) {
			if len(fields) == 0 {
				return nil, fmt.Errorf("wrapper: rest: source %q: collection %q has no records to infer a key from", w.name, n)
			}
			key = fields[0]
		}
		out = append(out, restColl{name: n, key: key, path: "/" + n, fields: fields})
	}
	return out, nil
}

// normalizePath resolves a collection's endpoint-relative path: empty
// means "/<name>", and a declared path always gets its leading slash.
func normalizePath(path, name string) string {
	if path == "" {
		path = name
	}
	if !strings.HasPrefix(path, "/") {
		path = "/" + path
	}
	return path
}

func (w *REST) buildSchema(colls []restColl) error {
	s := hdm.NewSchema(w.name)
	for _, c := range colls {
		if err := s.Add(hdm.NewObject(hdm.NewScheme(c.name), hdm.Nodal, "rest", "collection")); err != nil {
			return fmt.Errorf("wrapper: rest: source %q: %w", w.name, err)
		}
		for _, f := range c.fields {
			if err := s.Add(hdm.NewObject(hdm.NewScheme(c.name, f), hdm.Link, "rest", "field")); err != nil {
				return fmt.Errorf("wrapper: rest: source %q: %w", w.name, err)
			}
		}
		w.colls[c.name] = c
		w.order = append(w.order, c.name)
	}
	w.schema = s
	return nil
}

// Kind labels the wrapper flavour in metrics and traces.
func (w *REST) Kind() string { return "rest" }

// Config returns the wrapper's endpoint configuration.
func (w *REST) Config() RESTConfig { return w.cfg }

// Extent implements Wrapper.
func (w *REST) Extent(parts []string) (iql.Value, error) {
	return w.ExtentContext(context.Background(), parts)
}

// ExtentContext is Extent under a caller-supplied context: the fetch
// aborts as soon as ctx is cancelled (the per-wrapper Timeout still
// applies on top). A fetch that fails is an error, also from a restored
// wrapper: the extent it holds is served by FallbackExtent, to a caller
// that says so. The extent is the concatenation of exactly the pages
// ExtentScanner would stream; unpaginated endpoints (no Link header)
// cost one GET.
func (w *REST) ExtentContext(ctx context.Context, parts []string) (iql.Value, error) {
	s, err := w.scanner(parts)
	if err != nil {
		return iql.Value{}, err
	}
	return s.collect(ctx)
}

// url resolves an endpoint-relative path, such as a collection's, to
// an absolute URL.
func (w *REST) url(path string) string {
	return strings.TrimSuffix(w.cfg.Endpoint, "/") + path
}

// StreamingScans reports that ExtentScanner pages records from the
// wire rather than adapting a materialised extent.
func (w *REST) StreamingScans() bool { return true }

// ExtentScanner implements ScanSourcer: it follows the collection's
// pagination chain page by page, holding one decoded page at a time.
// Endpoints that don't paginate stream their single response, which
// still spares the caller the materialised extent copy.
func (w *REST) ExtentScanner(ctx context.Context, parts []string) (Scanner, error) {
	return w.scanner(parts)
}

// scanner returns the chain of the object parts names, not yet fetched.
// Its errors say which object a failed fetch was for; a record without
// its key is the collection's fault and says so itself.
func (w *REST) scanner(parts []string) (*pagedScanner, error) {
	obj, err := w.schema.Resolve(parts)
	if err != nil {
		return nil, err
	}
	sc := obj.Scheme
	c := w.colls[sc.Part(0)]
	return w.chain(c, c.decoder(sc), func(err error) error {
		var ke *restKeyError
		if errors.As(err, &ke) {
			return ke
		}
		return fmt.Errorf("wrapper: rest: source %q: fetching %s: %w", w.name, sc, err)
	}), nil
}

// chain returns c's pagination chain — rel="next" Link headers, so the
// cursor is the next page's URL — its records decoded through d. Each
// page is one bounded GET (with the wrapper's usual retry policy);
// between pages no connection is held. Pages of one chain are mostly of
// one size, so each is allocated at the length of the one before.
func (w *REST) chain(c restColl, d *restDecoder, wrap func(error) error) *pagedScanner {
	page := func(ctx context.Context, cursor any, items []iql.Value) ([]iql.Value, any, bool, error) {
		if items == nil {
			items = make([]iql.Value, 0, d.pageRows)
		}
		items, next, err := w.fetchPage(ctx, cursor.(string), d, items)
		return items, next, next == "", err
	}
	return &pagedScanner{page: page, wrap: wrap, cursor: w.url(c.path)}
}

// fetchPage GETs one page and appends its records, decoded through d,
// to items. The GET is retried exactly once on transport errors, 5xx
// responses and 429s — after a backoff, so a fleet of concurrent
// fetches against a struggling endpoint does not immediately re-send
// every failed request. Other 4xx responses fail immediately: retrying
// a rejected request cannot help. Neither is a malformed payload
// transient, so it is not downloaded again. next is the URL of the
// following page per the response's Link header, empty on the last
// page.
func (w *REST) fetchPage(ctx context.Context, url string, d *restDecoder, items []iql.Value) (_ []iql.Value, next string, err error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		if attempt > 0 {
			if err := w.backoff(ctx, lastErr); err != nil {
				return nil, "", fmt.Errorf("after failed fetch: %w", err)
			}
			obs.AddFetchRetry(ctx)
		}
		data, next, err := w.getPage(ctx, url, d.pageBytes)
		if err != nil {
			lastErr = err
			var re *restStatusError
			if errors.As(err, &re) && re.code < 500 && re.code != http.StatusTooManyRequests {
				return nil, "", err
			}
			continue
		}
		d.pageBytes = int64(len(data))
		n := len(items)
		if items, err = d.page(data, w.cfg.MaxBytes, items); err != nil {
			return nil, "", err
		}
		d.pageRows = len(items) - n
		return items, next, nil
	}
	return nil, "", fmt.Errorf("after retry: %w", lastErr)
}

// backoff sleeps before a retry: the server's Retry-After when the
// failure carried one (capped at the fetch timeout), otherwise the
// configured base delay jittered to ±50% so concurrent retries spread
// out. Cancelling ctx cuts the wait short. The wait is recorded as a
// backoff span on the context's trace.
func (w *REST) backoff(ctx context.Context, cause error) error {
	d := w.cfg.RetryBackoff
	// Jitter in [0.5d, 1.5d): synchronized clients that failed together
	// must not retry together.
	d = d/2 + time.Duration(rand.Int64N(int64(d)))
	var re *restStatusError
	if errors.As(cause, &re) && re.retryAfter > 0 {
		d = re.retryAfter
		if w.cfg.Timeout > 0 && d > w.cfg.Timeout {
			d = w.cfg.Timeout
		}
	}
	sp, _ := obs.StartSpan(ctx, obs.StageBackoff, d.String())
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		sp.End(ctx.Err())
		return ctx.Err()
	case <-t.C:
		sp.End(nil)
		return nil
	}
}

// restStatusError reports a non-2xx response; retryAfter carries the
// parsed Retry-After header of a 429/503, zero when absent.
type restStatusError struct {
	code       int
	url        string
	retryAfter time.Duration
}

func (e *restStatusError) Error() string {
	return fmt.Sprintf("GET %s: unexpected status %d", e.url, e.code)
}

// parseRetryAfter reads a Retry-After header: delay-seconds or an
// HTTP-date. Zero when absent or malformed.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// getPage performs one bounded GET of an absolute URL, returning the
// body and the next-page URL from the response's Link header (empty
// when there is none). The URL labels the fetch's trace span; sizeHint
// is what a body of undeclared length is expected to measure, 0 for no
// idea (see getBody).
func (w *REST) getPage(ctx context.Context, url string, sizeHint int64) ([]byte, string, error) {
	sp, ctx := obs.StartSpan(ctx, "http", url)
	ctx, cancel := context.WithTimeout(ctx, w.cfg.Timeout)
	defer cancel()
	data, next, err := w.getBody(ctx, url, sizeHint)
	obs.AddFetchBytes(ctx, int64(len(data)))
	sp.SetBytes(int64(len(data)))
	sp.End(err)
	if err != nil {
		return nil, "", err
	}
	return data, next, nil
}

// restDrainBudget bounds how much of an unwanted response body getBody
// drains before closing: enough to let typical error and oversize
// remainders finish so the keep-alive connection is reused, small
// enough that a huge body is abandoned (closing then resets the
// connection, which is the right trade).
const restDrainBudget = 256 << 10

func (w *REST) getBody(ctx context.Context, url string, sizeHint int64) ([]byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Accept", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, "", err
	}
	// Every exit drains the rest of the body (bounded) before closing:
	// a connection closed with unread data cannot go back in the
	// keep-alive pool, and the retry path immediately redials it.
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, restDrainBudget))
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, "", &restStatusError{
			code:       resp.StatusCode,
			url:        url,
			retryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	// Read fully inside the request deadline; the +1 detects overflow.
	// A body of declared length is read into a buffer of that size
	// rather than through ReadAll's doubling one. A chunked body declares
	// none, but the pages of one chain are mostly of one size: it is read
	// into a buffer an eighth larger than the page before it (sizeHint),
	// and grows as ReadAll would if that was not enough.
	body := io.LimitReader(resp.Body, w.cfg.MaxBytes+1)
	var data []byte
	if n := resp.ContentLength; n >= 0 && n <= w.cfg.MaxBytes {
		data, err = readSized(body, n+1)
	} else if sizeHint > 0 {
		data, err = readSized(body, min(sizeHint+sizeHint/8, w.cfg.MaxBytes)+1)
	} else {
		data, err = io.ReadAll(body)
	}
	if err != nil {
		return nil, "", err
	}
	if int64(len(data)) > w.cfg.MaxBytes {
		return nil, "", fmt.Errorf("GET %s: response exceeds the %d-byte budget", url, w.cfg.MaxBytes)
	}
	// resp.Request is the final request after redirects, so relative
	// next links resolve against where the page actually came from.
	return data, parseNextLink(resp.Header.Get("Link"), resp.Request.URL), nil
}

// readSized is io.ReadAll into a buffer that starts at size bytes: a
// body no longer than that costs one allocation, and one that outruns
// what it declared still grows as ReadAll would.
func readSized(r io.Reader, size int64) ([]byte, error) {
	b := make([]byte, 0, size)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// parseNextLink extracts the rel="next" target from a Link header (RFC
// 8288), resolved against the fetched page's URL since targets may be
// relative. Empty when the header carries no next relation.
func parseNextLink(h string, base *neturl.URL) string {
	for _, part := range strings.Split(h, ",") {
		segs := strings.Split(part, ";")
		target := strings.TrimSpace(segs[0])
		if !strings.HasPrefix(target, "<") || !strings.HasSuffix(target, ">") {
			continue
		}
		isNext := false
		for _, p := range segs[1:] {
			k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok || !strings.EqualFold(strings.TrimSpace(k), "rel") {
				continue
			}
			// rel is a space-separated relation list, optionally quoted.
			for _, r := range strings.Fields(strings.Trim(strings.TrimSpace(v), `"`)) {
				if strings.EqualFold(r, "next") {
					isNext = true
				}
			}
		}
		if !isNext {
			continue
		}
		u, err := neturl.Parse(strings.TrimSuffix(strings.TrimPrefix(target, "<"), ">"))
		if err != nil {
			continue
		}
		if base != nil {
			u = base.ResolveReference(u)
		}
		return u.String()
	}
	return ""
}

// Ping probes the endpoint with one bounded GET of the first
// collection, reporting reachability without decoding the payload. It
// is the federation-time liveness probe (query.Pinger).
func (w *REST) Ping(ctx context.Context) error {
	path := ""
	if len(w.order) > 0 {
		path = w.colls[w.order[0]].path
	}
	_, _, err := w.getPage(ctx, w.url(path), 0)
	return err
}

// restDecoder decodes the pages of one collection: a JSON array of flat
// records each, walked once from the bytes getBody read to the rows of
// one object's extent. It is deliberately strict — a document that is
// not an array, an element that is not an object, a nested field value,
// a number that fits neither int64 nor float64, trailing data and a
// page over the byte budget are all errors, never panics, so a
// malformed remote payload fails the fetch cleanly — and it checks
// every member of every record, yet builds a value only for the key
// and the projected field. encoding/json keeps deciding what JSON is
// (json.Valid runs first, so the walk never meets malformed input);
// the walk decides what a flat record is.
type restDecoder struct {
	coll string // collection name, for the missing-key error
	key  string // key field
	pair bool   // project {key, field} tuples rather than keys
	// field is the projected field of a link object. A record without a
	// value for it is absent from the extent, like a relational NULL.
	field string
	// names, when non-nil, collects every member name met and nothing is
	// projected: field inference.
	names map[string]bool

	rec    int // absolute index of the next record, across pages
	tuples pairs
	// pageBytes and pageRows are the raw size and the rows of the last
	// page fetched for this decoder, 0 before the first: the guesses at
	// the next one's.
	pageBytes int64
	pageRows  int
}

// decoder returns the decoder projecting c's records onto the extent of
// the object sc names: the keys of <<c>>, the {key, value} pairs of
// <<c, f>>.
func (c restColl) decoder(sc hdm.Scheme) *restDecoder {
	d := &restDecoder{coll: c.name, key: c.key}
	if sc.Arity() == 2 {
		d.pair, d.field = true, sc.Part(1)
	}
	return d
}

// fields lists the member names met, sorted.
func (d *restDecoder) fields() []string {
	out := make([]string, 0, len(d.names))
	for f := range d.names {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// restKeyError reports a record without its key field. The fetch worked
// and the collection is at fault, so callers return it as it is: no
// "fetching" prefix, no stale fallback.
type restKeyError struct {
	coll string
	rec  int
	key  string
}

func (e *restKeyError) Error() string {
	return fmt.Sprintf("wrapper: rest: collection %q record %d has no key field %q", e.coll, e.rec, e.key)
}

// page appends the projection of every record of one page to items.
// The budget counts the page's raw bytes, byte for byte what getBody
// enforces. A null document is a page of no records.
func (d *restDecoder) page(data []byte, maxBytes int64, items []iql.Value) ([]iql.Value, error) {
	if int64(len(data)) > maxBytes {
		return nil, fmt.Errorf("response exceeds the %d-byte budget", maxBytes)
	}
	if !json.Valid(data) {
		// Unmarshal validates before it decodes: this is the standard
		// library's own syntax error.
		return nil, json.Unmarshal(data, new(json.RawMessage))
	}
	i := skipSpace(data, 0)
	if data[i] == 'n' {
		return items, nil
	}
	if data[i] != '[' {
		return nil, fmt.Errorf("document is %s, not an array of records", jsonKind(data[i]))
	}
	i = skipSpace(data, i+1)
	if data[i] == ']' {
		return items, nil
	}
	for {
		if data[i] != '{' {
			return nil, fmt.Errorf("record %d is %s, not an object", d.rec, jsonKind(data[i]))
		}
		item, ok, end, err := d.record(data, i)
		if err != nil {
			return nil, err
		}
		if ok {
			items = append(items, item)
		}
		d.rec++
		if i = skipSpace(data, end); data[i] == ']' {
			return items, nil
		}
		i = skipSpace(data, i+1) // past the comma
	}
}

// record walks the object opening at data[i], record d.rec of the
// collection, and returns its projection and the index after its closing
// brace. ok=false means the record has no value for the projected field.
// The last of duplicate members wins, for the projection and for the
// checks alike, as it does in encoding/json.
func (d *restDecoder) record(data []byte, i int) (item iql.Value, ok bool, end int, err error) {
	var k, v iql.Value
	// bad holds the members whose value a flat record cannot have,
	// until the record ends without a later duplicate replacing them.
	var bad []restBadMember
	for i = skipSpace(data, i+1); data[i] != '}'; {
		nameEnd, plain := stringEnd(data, i)
		name := data[i+1 : nameEnd-1]
		if !plain {
			name = []byte(unquote(data[i:nameEnd]))
		}
		isKey, isField := string(name) == d.key, d.pair && string(name) == d.field
		if d.names != nil && !d.names[string(name)] {
			d.names[string(name)] = true
		}
		i = skipSpace(data, nameEnd)  // at the colon
		start := skipSpace(data, i+1) // at the value
		var val iql.Value
		var verr error
		switch c := data[start]; c {
		case '"':
			var plainVal bool
			i, plainVal = stringEnd(data, start)
			if isKey || isField {
				if plainVal {
					val = iql.Str(string(data[start+1 : i-1]))
				} else {
					val = iql.Str(unquote(data[start:i]))
				}
			}
		case '{', '[':
			i = nestedEnd(data, start)
			verr = fmt.Errorf("unsupported JSON %s (records must be flat)", jsonKind(c))
		case 't':
			i, val = start+len("true"), iql.Bool(true)
		case 'f':
			i, val = start+len("false"), iql.Bool(false)
		case 'n':
			i = start + len("null")
		default:
			i = numberEnd(data, start)
			val, verr = numberValue(data[start:i], isKey || isField)
		}
		if verr != nil || len(bad) > 0 {
			bad = noteMember(bad, string(name), verr)
		}
		if isKey {
			k = val
		}
		if isField {
			v = val
		}
		if i = skipSpace(data, i); data[i] == ',' {
			i = skipSpace(data, i+1)
		}
	}
	end = i + 1
	if len(bad) > 0 {
		return iql.Value{}, false, end, fmt.Errorf("record %d field %q: %w", d.rec, bad[0].name, bad[0].err)
	}
	switch {
	case d.names != nil:
		return iql.Value{}, false, end, nil
	case k.IsNull():
		return iql.Value{}, false, end, &restKeyError{coll: d.coll, rec: d.rec, key: d.key}
	case !d.pair:
		return k, true, end, nil
	case v.IsNull():
		return iql.Value{}, false, end, nil
	}
	return d.tuples.tuple(k, v), true, end, nil
}

// restBadMember is a member a flat record cannot have, by its decoded
// name.
type restBadMember struct {
	name string
	err  error
}

// noteMember records the member just walked in a record that has bad
// members: a bad one (err non-nil) joins the list, and either kind
// replaces an earlier member of the same name.
func noteMember(bad []restBadMember, name string, err error) []restBadMember {
	bad = slices.DeleteFunc(bad, func(b restBadMember) bool { return b.name == name })
	if err != nil {
		bad = append(bad, restBadMember{name: name, err: err})
	}
	return bad
}

// numberValue maps a number literal onto an IQL scalar: an integral
// literal keeps full int64 precision, everything else must fit a
// float64 (ParseInt, then ParseFloat, as json.Number's Int64 and
// Float64 would), a float carrying its shortest digits as a relational
// cell does (CellValue). When the value is not wanted only the check is
// made, and a literal that cannot overflow a float64 — no exponent,
// fewer digits than the largest float64 has — is not even parsed.
func numberValue(lit []byte, wanted bool) (iql.Value, error) {
	if !wanted && len(lit) < 300 && bytes.IndexAny(lit, "eE") < 0 {
		return iql.Value{}, nil
	}
	if bytes.IndexAny(lit, ".eE") < 0 {
		if i, err := strconv.ParseInt(string(lit), 10, 64); err == nil {
			return iql.Int(i), nil
		}
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return iql.Value{}, fmt.Errorf("number %q fits neither int64 nor float64", lit)
	}
	if !wanted {
		return iql.Value{}, nil // checked: its digits are not worth a search
	}
	return iql.SourceFloat(f), nil
}
