// Package match implements the Schema Matching Tool (Rizopoulos): it
// suggests semantic correspondences between the objects of two schemas,
// combining name-based matchers (edit distance, trigram overlap, token
// similarity with a synonym table) with instance-based matchers (value
// overlap and type compatibility of sampled extents). The Intersection
// Schema Tool uses these suggestions to pre-populate its mappings table
// (paper §2.3, step 4).
package match

import (
	"fmt"
	"sort"
	"strings"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
)

// Correspondence is a suggested semantic match between two schema
// objects with a combined confidence score in [0, 1].
type Correspondence struct {
	Left, Right hdm.Scheme
	Score       float64
	// Evidence itemises the contributing matcher scores, for display.
	Evidence map[string]float64
}

// String renders "left ~ right (score)".
func (c Correspondence) String() string {
	return fmt.Sprintf("%s ~ %s (%.2f)", c.Left, c.Right, c.Score)
}

// Config tunes the matcher.
type Config struct {
	// NameWeight and InstanceWeight blend the two matcher families;
	// they are renormalised if they do not sum to 1. When no extents
	// are supplied, name evidence alone is used.
	NameWeight     float64
	InstanceWeight float64
	// Synonyms maps a token to equivalent tokens, applied
	// symmetrically, e.g. {"sequence": {"seq"}}.
	Synonyms map[string][]string
	// SampleSize bounds how many extent elements are compared; 0
	// means 200.
	SampleSize int
	// MinScore filters suggestions; default 0.
	MinScore float64
}

// DefaultConfig returns a configuration with equal weights and a small
// proteomics-flavoured synonym table matching the paper's case study
// vocabulary.
func DefaultConfig() Config {
	return Config{
		NameWeight:     0.5,
		InstanceWeight: 0.5,
		SampleSize:     200,
		Synonyms: map[string][]string{
			"sequence":  {"seq", "pepseq"},
			"accession": {"label", "acc"},
			"protein":   {"proseq", "prot"},
			"score":     {"hyperscore"},
			"expect":    {"probability", "expectation"},
			"search":    {"fileparameters"},
		},
	}
}

// Matcher computes correspondences.
type Matcher struct {
	cfg Config
	syn map[string]map[string]bool
}

// New builds a matcher from a configuration.
func New(cfg Config) *Matcher {
	if cfg.NameWeight <= 0 && cfg.InstanceWeight <= 0 {
		cfg.NameWeight, cfg.InstanceWeight = 0.5, 0.5
	}
	if cfg.SampleSize == 0 {
		cfg.SampleSize = 200
	}
	m := &Matcher{cfg: cfg, syn: make(map[string]map[string]bool)}
	for k, vs := range cfg.Synonyms {
		for _, v := range vs {
			m.addSyn(k, v)
			m.addSyn(v, k)
		}
	}
	return m
}

func (m *Matcher) addSyn(a, b string) {
	if m.syn[a] == nil {
		m.syn[a] = make(map[string]bool)
	}
	m.syn[a][b] = true
}

// ExtentSource supplies extents for instance-based matching; nil
// disables instance evidence.
type ExtentSource interface {
	Extent(parts []string) (iql.Value, error)
}

// Match suggests correspondences between objects of schemas a and b,
// comparing only objects of equal kind, ordered by descending score.
// extA and extB may be nil.
func (m *Matcher) Match(a, b *hdm.Schema, extA, extB ExtentSource) []Correspondence {
	var out []Correspondence
	for _, oa := range a.Objects() {
		for _, ob := range b.Objects() {
			if oa.Kind != ob.Kind {
				continue
			}
			c := m.score(oa, ob, extA, extB)
			if c.Score >= m.cfg.MinScore && c.Score > 0 {
				out = append(out, c)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if c := hdm.CompareSchemes(out[i].Left, out[j].Left); c != 0 {
			return c < 0
		}
		return hdm.CompareSchemes(out[i].Right, out[j].Right) < 0
	})
	return out
}

// Best returns, for each left object, the highest-scoring suggestion
// meeting minScore, at most one per left object.
func (m *Matcher) Best(a, b *hdm.Schema, extA, extB ExtentSource, minScore float64) []Correspondence {
	all := m.Match(a, b, extA, extB)
	seen := make(map[string]bool)
	var out []Correspondence
	for _, c := range all {
		k := c.Left.Key()
		if seen[k] || c.Score < minScore {
			continue
		}
		seen[k] = true
		out = append(out, c)
	}
	return out
}

func (m *Matcher) score(oa, ob *hdm.Object, extA, extB ExtentSource) Correspondence {
	ev := make(map[string]float64)
	nameScore := m.nameSimilarity(oa.Scheme, ob.Scheme)
	ev["name"] = nameScore

	instScore, hasInst := 0.0, false
	if extA != nil && extB != nil {
		va, errA := extA.Extent(oa.Scheme.Parts())
		vb, errB := extB.Extent(ob.Scheme.Parts())
		if errA == nil && errB == nil {
			s, ok := m.instanceSimilarity(va, vb)
			if ok {
				instScore, hasInst = s, true
				ev["instance"] = s
			}
		}
	}

	nw, iw := m.cfg.NameWeight, m.cfg.InstanceWeight
	var score float64
	if hasInst {
		score = (nw*nameScore + iw*instScore) / (nw + iw)
	} else {
		score = nameScore
	}
	return Correspondence{Left: oa.Scheme, Right: ob.Scheme, Score: score, Evidence: ev}
}

// nameSimilarity compares the final scheme parts (the most specific
// names) and blends trigram, edit-distance and token evidence.
func (m *Matcher) nameSimilarity(a, b hdm.Scheme) float64 {
	na, nb := normalise(a.Last()), normalise(b.Last())
	if na == nb {
		return 1
	}
	if m.synonymous(na, nb) {
		return 0.95
	}
	tri := trigramJaccard(na, nb)
	lev := 1 - float64(levenshtein(na, nb))/float64(maxInt(len(na), len(nb)))
	tok := m.tokenSimilarity(na, nb)
	s := 0.4*tri + 0.35*lev + 0.25*tok
	if s < 0 {
		s = 0
	}
	return s
}

func normalise(s string) string {
	s = strings.ToLower(s)
	s = strings.ReplaceAll(s, "-", "_")
	s = strings.ReplaceAll(s, " ", "_")
	return s
}

func (m *Matcher) synonymous(a, b string) bool {
	if m.syn[a][b] || m.syn[b][a] {
		return true
	}
	return false
}

// tokenSimilarity splits on underscores and camel humps and measures
// Jaccard overlap with synonym credit.
func (m *Matcher) tokenSimilarity(a, b string) float64 {
	ta, tb := tokens(a), tokens(b)
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	matched := 0
	used := make([]bool, len(tb))
	for _, x := range ta {
		for j, y := range tb {
			if used[j] {
				continue
			}
			if x == y || m.synonymous(x, y) {
				matched++
				used[j] = true
				break
			}
		}
	}
	return float64(2*matched) / float64(len(ta)+len(tb))
}

func tokens(s string) []string {
	var out []string
	for _, t := range strings.Split(s, "_") {
		if t != "" {
			out = append(out, t)
		}
	}
	return out
}

// trigramJaccard measures character-trigram overlap.
func trigramJaccard(a, b string) float64 {
	ga, gb := trigrams(a), trigrams(b)
	if len(ga) == 0 || len(gb) == 0 {
		return 0
	}
	inter := 0
	for g := range ga {
		if gb[g] {
			inter++
		}
	}
	union := len(ga) + len(gb) - inter
	return float64(inter) / float64(union)
}

func trigrams(s string) map[string]bool {
	padded := "  " + s + " "
	out := make(map[string]bool)
	for i := 0; i+3 <= len(padded); i++ {
		out[padded[i:i+3]] = true
	}
	return out
}

// levenshtein computes edit distance with two rows of DP state.
func levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = minInt(minInt(cur[j-1]+1, prev[j]+1), prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// instanceSimilarity measures value overlap between two extents,
// comparing the value component of {key, value} pairs (or whole
// elements for nodal extents). Reports ok=false when either sample is
// empty.
func (m *Matcher) instanceSimilarity(a, b iql.Value) (float64, bool) {
	va, err := sampleValues(a, m.cfg.SampleSize)
	if err != nil || len(va) == 0 {
		return 0, false
	}
	vb, err := sampleValues(b, m.cfg.SampleSize)
	if err != nil || len(vb) == 0 {
		return 0, false
	}
	// Type compatibility gate.
	if kindSignature(va) != kindSignature(vb) {
		return 0, true
	}
	sa, sb := toSet(va), toSet(vb)
	inter := 0
	for k := range sa {
		if sb[k] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 0, true
	}
	return float64(inter) / float64(union), true
}

// sampleValues extracts comparable values from an extent: for tuple
// elements the last component (the attribute value), otherwise the
// element itself.
func sampleValues(v iql.Value, n int) ([]iql.Value, error) {
	els, err := v.Elements()
	if err != nil {
		return nil, err
	}
	if len(els) > n {
		els = els[:n]
	}
	out := make([]iql.Value, 0, len(els))
	for _, e := range els {
		if items := e.Items(); e.Kind == iql.KindTuple && len(items) > 0 {
			out = append(out, items[len(items)-1])
		} else {
			out = append(out, e)
		}
	}
	return out, nil
}

// kindSignature summarises the dominant scalar kind of a sample.
func kindSignature(vals []iql.Value) iql.Kind {
	counts := make(map[iql.Kind]int)
	for _, v := range vals {
		k := v.Kind
		if k == iql.KindFloat {
			k = iql.KindInt // numeric bucket
		}
		counts[k]++
	}
	best, bestN := iql.KindNull, -1
	for k, n := range counts {
		if n > bestN || (n == bestN && k < best) {
			best, bestN = k, n
		}
	}
	return best
}

func toSet(vals []iql.Value) map[string]bool {
	out := make(map[string]bool, len(vals))
	for _, v := range vals {
		out[v.Key()] = true
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
