package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"

	"github.com/dataspace/automed/internal/ispider"
)

// An op is one timed request of a workload's stream. Everything in it
// is fixed at set-up, so the measured loop only sends bytes and
// compares bytes.
type op struct {
	// class groups ops whose cost has one body: "Q1".."Q7", "scan_sql",
	// "scan_rest", "cold_join", "step", "restore".
	class string
	// query marks a POST /query: only those feed query_p50_ms and
	// query_p99_ms; steps and restores count towards ops_per_s alone.
	query bool
	// text is the IQL source of a query op (the traced run re-issues
	// it at deeper entry points).
	text string
	path string
	body []byte
	// want must occur in the 2xx response body; nil checks the status
	// alone.
	want []byte
	// cold makes the client invalidate the session's cached extents
	// (untimed) just before the request.
	cold    bool
	session string
}

// stream is one client's endless op sequence.
type stream interface{ next() *op }

// rngFor seeds one PCG stream per (run seed, purpose): clients use
// their id, set-up uses streams above the client range.
func rngFor(seed uint64, id int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(id)))
}

const (
	rngPools = 1000 + iota // constant pools and text order
	rngData                // generated source rows
)

// queryBody renders a POST /query request body.
func queryBody(session, text string, noCache bool) []byte {
	b, err := json.Marshal(struct {
		Session string `json:"session"`
		Query   string `json:"query"`
		NoCache bool   `json:"no_cache,omitempty"`
	}{session, text, noCache})
	if err != nil {
		panic(err) // strings and a bool always encode
	}
	return b
}

// needle renders the `"rendered":"…"` member exactly as the daemon's
// response encoder does (no HTML escaping), so a response is checked
// against the oracle with one substring search. The key cannot occur
// unescaped inside another member's string value.
func needle(rendered string) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(rendered); err != nil {
		panic(err)
	}
	return append([]byte(`"rendered":`), bytes.TrimSuffix(buf.Bytes(), []byte("\n"))...)
}

// The case study's constant domains. organisms and descWords mirror
// the unexported generator tables of internal/ispider; a constant the
// data does not contain only makes a query's answer empty, which the
// oracle then expects.
var (
	organisms = []string{ispider.SharedOrganism, "Mus musculus", "Saccharomyces cerevisiae", "Escherichia coli"}
	descWords = []string{"putative", ispider.GroupKeyword, "membrane", "transport", "binding", "receptor", "ribosomal"}
)

// caseTexts instantiates the Table 1 templates named in counts with
// constants drawn from seeded pools: counts[id] distinct texts per
// query id (capped by the constant domain; Q4 and Q7 have no constant
// and yield one text). The result maps query id to its texts.
func caseTexts(rng *rand.Rand, cfg ispider.Config, counts map[string]int) map[string][]string {
	accessions := func(n int) []string {
		universe := cfg.Proteins * 2
		out := make([]string, 0, n)
		for _, i := range rng.Perm(universe)[:min(n, universe)] {
			out = append(out, fmt.Sprintf("P%05d", i))
		}
		return out
	}
	hits := cfg.Searches * cfg.HitsPerSearch
	texts := make(map[string][]string)
	for _, q := range ispider.Table1Queries() {
		n, ok := counts[q.ID]
		if !ok {
			continue
		}
		var old string
		var consts []string
		switch q.ID {
		case "Q1", "Q5":
			old, consts = ispider.SharedAccession, accessions(n)
		case "Q2":
			old, consts = ispider.GroupKeyword, descWords[:min(n, len(descWords))]
		case "Q3":
			old, consts = ispider.SharedOrganism, organisms[:min(n, len(organisms))]
		case "Q6":
			old = "5000"
			for _, i := range rng.Perm(hits)[:min(n, hits)] {
				consts = append(consts, strconv.Itoa(5000+i))
			}
		default:
			texts[q.ID] = []string{q.IQL}
			continue
		}
		if !strings.Contains(q.IQL, old) {
			panic("bench: Table 1 template " + q.ID + " lost its constant " + old)
		}
		for _, c := range consts {
			texts[q.ID] = append(texts[q.ID], strings.Replace(q.IQL, old, c, 1))
		}
	}
	return texts
}

// classIDs lists the query ids of a text map in Table 1 order.
func classIDs(texts map[string][]string) []string {
	var ids []string
	for _, q := range ispider.Table1Queries() {
		if len(texts[q.ID]) > 0 {
			ids = append(ids, q.ID)
		}
	}
	return ids
}

// blockStream deals the classes in shuffled blocks — every block holds
// each class once, in a random order — and within a class deals its ops
// like a deck of cards: each once, in a random order, before any comes
// again. Classes differ a hundredfold in cost and texts within a class
// by their answer's size, so exact shares keep throughput and allocation
// per op from moving with the luck of the draw.
type blockStream struct {
	rng     *rand.Rand
	classes [][]*op
	decks   [][]int // per class, the ops not yet dealt this round
	block   []int
}

func newBlockStream(rng *rand.Rand, classes [][]*op) *blockStream {
	return &blockStream{rng: rng, classes: classes, decks: make([][]int, len(classes))}
}

func (s *blockStream) next() *op {
	if len(s.block) == 0 {
		s.block = s.rng.Perm(len(s.classes))
	}
	c := s.block[0]
	s.block = s.block[1:]
	if len(s.decks[c]) == 0 {
		s.decks[c] = s.rng.Perm(len(s.classes[c]))
	}
	o := s.classes[c][s.decks[c][0]]
	s.decks[c] = s.decks[c][1:]
	return o
}

// zipfStream is hot_repeat's mix: zipf-popular sessions, zipf-popular
// texts, and a fixed share of requests that bypass the result cache.
type zipfStream struct {
	rng      *rand.Rand
	sessions *rand.Zipf
	texts    *rand.Zipf
	// ops[session][text][noCache]
	ops [][][2]*op
}

// noCacheShare is the fraction of hot_repeat requests sent with
// no_cache: 5% puts the 99th percentile inside the evaluated class.
const noCacheShare = 0.05

func (s *zipfStream) next() *op {
	nc := 0
	if s.rng.Float64() < noCacheShare {
		nc = 1
	}
	return s.ops[s.sessions.Uint64()][s.texts.Uint64()][nc]
}
