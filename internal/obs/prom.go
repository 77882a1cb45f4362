package obs

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// PromWriter assembles Prometheus text exposition (version 0.0.4). The
// first sample of each metric family emits its # HELP and # TYPE
// header; callers therefore group a family's series together (the
// format requires it) by emitting them consecutively.
type PromWriter struct {
	buf      bytes.Buffer
	families map[string]bool
}

// NewPromWriter returns an empty writer.
func NewPromWriter() *PromWriter {
	return &PromWriter{families: make(map[string]bool)}
}

func (w *PromWriter) header(name, typ, help string) {
	if w.families[name] {
		return
	}
	w.families[name] = true
	fmt.Fprintf(&w.buf, "# HELP %s %s\n", name, help)
	fmt.Fprintf(&w.buf, "# TYPE %s %s\n", name, typ)
}

// formatValue renders a sample value losslessly.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders a label set; labels are name, value pairs.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func (w *PromWriter) sample(name, labels string, v float64) {
	w.buf.WriteString(name)
	w.buf.WriteString(labels)
	w.buf.WriteByte(' ')
	w.buf.WriteString(formatValue(v))
	w.buf.WriteByte('\n')
}

// Counter emits one counter sample; labels are name, value pairs.
func (w *PromWriter) Counter(name, help string, v float64, labels ...string) {
	w.header(name, "counter", help)
	w.sample(name, labelString(labels), v)
}

// Gauge emits one gauge sample.
func (w *PromWriter) Gauge(name, help string, v float64, labels ...string) {
	w.header(name, "gauge", help)
	w.sample(name, labelString(labels), v)
}

// Histogram emits one histogram series (cumulative le buckets in
// seconds, +Inf, _sum, _count) from a snapshot whose bounds are in
// milliseconds.
func (w *PromWriter) Histogram(name, help string, snap HistSnapshot, labels ...string) {
	w.header(name, "histogram", help)
	var cum uint64
	for i, bound := range snap.BoundsMs {
		cum += snap.Counts[i]
		le := append(append([]string(nil), labels...), "le", formatValue(bound/1000))
		w.sample(name+"_bucket", labelString(le), float64(cum))
	}
	if n := len(snap.BoundsMs); n < len(snap.Counts) {
		cum += snap.Counts[n]
	}
	inf := append(append([]string(nil), labels...), "le", "+Inf")
	w.sample(name+"_bucket", labelString(inf), float64(cum))
	w.sample(name+"_sum", labelString(labels), float64(snap.SumNs)/1e9)
	w.sample(name+"_count", labelString(labels), float64(cum))
}

// Bytes returns the exposition assembled so far.
func (w *PromWriter) Bytes() []byte { return w.buf.Bytes() }

// ---- Exposition validation ----

// promSample is one parsed sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
	line   int
}

// ValidateExposition checks that data is well-formed Prometheus text
// exposition: every line parses, every sampled family has # HELP and
// # TYPE headers before its first sample, histogram series have
// monotone le buckets ending in +Inf with non-decreasing cumulative
// counts, and each histogram's _count equals its +Inf bucket. The
// tests of every scrape (this package's and internal/server's) call it.
func ValidateExposition(data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("exposition is empty")
	}
	if data[len(data)-1] != '\n' {
		return fmt.Errorf("exposition does not end in a newline")
	}
	help := make(map[string]bool)
	types := make(map[string]string)
	seen := make(map[string]bool) // duplicate-series guard: name + sorted labels
	var samples []promSample

	for i, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		ln := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment
			}
			name := fields[2]
			if !validMetricName(name) {
				return fmt.Errorf("line %d: invalid metric name %q", ln, name)
			}
			if fields[1] == "HELP" {
				if help[name] {
					return fmt.Errorf("line %d: duplicate HELP for %s", ln, name)
				}
				help[name] = true
				continue
			}
			if len(fields) < 4 {
				return fmt.Errorf("line %d: TYPE without a type", ln)
			}
			typ := fields[3]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("line %d: unknown type %q for %s", ln, typ, name)
			}
			if _, dup := types[name]; dup {
				return fmt.Errorf("line %d: duplicate TYPE for %s", ln, name)
			}
			types[name] = typ
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", ln, err)
		}
		s.line = ln
		fam, ok := familyOf(s.name, types)
		if !ok {
			return fmt.Errorf("line %d: sample %s has no # TYPE header", ln, s.name)
		}
		if !help[fam] {
			return fmt.Errorf("line %d: sample %s has no # HELP header", ln, s.name)
		}
		key := s.name + labelKey(s.labels, "")
		if seen[key] {
			return fmt.Errorf("line %d: duplicate series %s", ln, key)
		}
		seen[key] = true
		samples = append(samples, s)
	}
	return checkHistograms(samples, types)
}

// familyOf resolves a sample name to its typed family: histogram
// samples are name_bucket/_sum/_count of a histogram-typed base.
func familyOf(name string, types map[string]string) (string, bool) {
	if _, ok := types[name]; ok {
		return name, true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name && types[base] == "histogram" {
			return base, true
		}
	}
	return "", false
}

// checkHistograms verifies each histogram series: le monotone and
// ending in +Inf, cumulative counts non-decreasing, _count == +Inf.
func checkHistograms(samples []promSample, types map[string]string) error {
	type series struct {
		les     []float64
		counts  []float64
		count   *float64
		hasSum  bool
		anyLine int
	}
	bySeries := make(map[string]*series)
	order := []string{}
	get := func(key string) *series {
		s := bySeries[key]
		if s == nil {
			s = &series{}
			bySeries[key] = s
			order = append(order, key)
		}
		return s
	}
	for _, s := range samples {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(s.name, suffix)
			if base == s.name || types[base] != "histogram" {
				continue
			}
			key := base + labelKey(s.labels, "le")
			sr := get(key)
			sr.anyLine = s.line
			switch suffix {
			case "_bucket":
				leStr, ok := s.labels["le"]
				if !ok {
					return fmt.Errorf("line %d: histogram bucket %s lacks an le label", s.line, s.name)
				}
				le := math.Inf(1)
				if leStr != "+Inf" {
					v, err := strconv.ParseFloat(leStr, 64)
					if err != nil {
						return fmt.Errorf("line %d: bad le %q: %v", s.line, leStr, err)
					}
					le = v
				}
				sr.les = append(sr.les, le)
				sr.counts = append(sr.counts, s.value)
			case "_sum":
				sr.hasSum = true
			case "_count":
				v := s.value
				sr.count = &v
			}
		}
	}
	for _, key := range order {
		sr := bySeries[key]
		if len(sr.les) == 0 {
			return fmt.Errorf("histogram series %s has no buckets", key)
		}
		for i := 1; i < len(sr.les); i++ {
			if sr.les[i] <= sr.les[i-1] {
				return fmt.Errorf("histogram series %s: le buckets not strictly increasing (%v)", key, sr.les)
			}
			if sr.counts[i] < sr.counts[i-1] {
				return fmt.Errorf("histogram series %s: cumulative bucket counts decrease (%v)", key, sr.counts)
			}
		}
		if !math.IsInf(sr.les[len(sr.les)-1], 1) {
			return fmt.Errorf("histogram series %s: last bucket is not le=\"+Inf\"", key)
		}
		if sr.count == nil {
			return fmt.Errorf("histogram series %s lacks a _count sample", key)
		}
		if !sr.hasSum {
			return fmt.Errorf("histogram series %s lacks a _sum sample", key)
		}
		if inf := sr.counts[len(sr.counts)-1]; *sr.count != inf {
			return fmt.Errorf("histogram series %s: _count %v != +Inf bucket %v", key, *sr.count, inf)
		}
	}
	return nil
}

// labelKey canonicalises a label set (minus one excluded label) for
// series identity.
func labelKey(labels map[string]string, exclude string) string {
	if len(labels) == 0 {
		return "{}"
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != exclude {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString("=")
		b.WriteString(strconv.Quote(labels[k]))
	}
	b.WriteByte('}')
	return b.String()
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// parseSampleLine parses `name{label="value",...} value [timestamp]`.
func parseSampleLine(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' && line[i] != '\t' {
		i++
	}
	s.name = line[:i]
	if !validMetricName(s.name) {
		return s, fmt.Errorf("invalid metric name %q", s.name)
	}
	if i < len(line) && line[i] == '{' {
		i++
		for {
			for i < len(line) && (line[i] == ' ' || line[i] == ',') {
				i++
			}
			if i < len(line) && line[i] == '}' {
				i++
				break
			}
			j := i
			for j < len(line) && line[j] != '=' {
				j++
			}
			if j == len(line) {
				return s, fmt.Errorf("unterminated label set")
			}
			name := strings.TrimSpace(line[i:j])
			if !validMetricName(name) {
				return s, fmt.Errorf("invalid label name %q", name)
			}
			i = j + 1
			if i >= len(line) || line[i] != '"' {
				return s, fmt.Errorf("label %s: value is not quoted", name)
			}
			i++
			var val strings.Builder
			for {
				if i >= len(line) {
					return s, fmt.Errorf("label %s: unterminated value", name)
				}
				c := line[i]
				if c == '\\' {
					if i+1 >= len(line) {
						return s, fmt.Errorf("label %s: dangling escape", name)
					}
					switch line[i+1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return s, fmt.Errorf("label %s: bad escape \\%c", name, line[i+1])
					}
					i += 2
					continue
				}
				if c == '"' {
					i++
					break
				}
				val.WriteByte(c)
				i++
			}
			if _, dup := s.labels[name]; dup {
				return s, fmt.Errorf("duplicate label %s", name)
			}
			s.labels[name] = val.String()
		}
	}
	rest := strings.Fields(line[i:])
	if len(rest) < 1 || len(rest) > 2 {
		return s, fmt.Errorf("want value (and optional timestamp), got %q", line[i:])
	}
	v, err := parsePromValue(rest[0])
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", rest[0], err)
	}
	s.value = v
	if len(rest) == 2 {
		if _, err := strconv.ParseInt(rest[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q", rest[1])
		}
	}
	return s, nil
}

func parsePromValue(v string) (float64, error) {
	switch v {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(v, 64)
}
