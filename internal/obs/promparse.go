package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is a strict parser/linter for the Prometheus text exposition
// format (version 0.0.4). It exists so tests can validate every line a
// /metrics endpoint emits — metadata present, no duplicate series,
// histogram buckets cumulative and capped by +Inf — instead of grepping
// for substrings.

// Series is one parsed sample line.
type Series struct {
	Name   string            // metric name as written (includes _bucket/_sum/_count suffixes)
	Labels map[string]string // nil when the line has no label set
	Value  float64
}

// Key returns a canonical identity for duplicate detection: the name
// plus the sorted label pairs.
func (s Series) Key() string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, s.Labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Exposition is the parsed form of one scrape.
type Exposition struct {
	Series []Series
	Types  map[string]string // family name -> counter|gauge|histogram|summary|untyped
	Helps  map[string]string // family name -> help text
}

// ParsePrometheusText parses a text-format exposition strictly: every
// line must be a well-formed comment or sample, TYPE/HELP must appear at
// most once per family and before that family's samples, and no series
// may repeat.
func ParsePrometheusText(r io.Reader) (*Exposition, error) {
	exp := &Exposition{
		Types: make(map[string]string),
		Helps: make(map[string]string),
	}
	seen := make(map[string]int) // series key -> first line no
	sawSample := make(map[string]bool)

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := exp.parseComment(line, sawSample); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		key := s.Key()
		if first, dup := seen[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate series %s (first at line %d)", lineNo, key, first)
		}
		seen[key] = lineNo
		sawSample[familyOf(s.Name)] = true
		exp.Series = append(exp.Series, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return exp, nil
}

func (e *Exposition) parseComment(line string, sawSample map[string]bool) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE comment %q", line)
		}
		name, typ := fields[2], fields[3]
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q for %s", typ, name)
		}
		if _, dup := e.Types[name]; dup {
			return fmt.Errorf("duplicate TYPE for %s", name)
		}
		if sawSample[name] {
			return fmt.Errorf("TYPE for %s appears after its samples", name)
		}
		e.Types[name] = typ
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("malformed HELP comment %q", line)
		}
		name := fields[2]
		help := ""
		if len(fields) == 4 {
			help = fields[3]
		}
		if _, dup := e.Helps[name]; dup {
			return fmt.Errorf("duplicate HELP for %s", name)
		}
		if sawSample[name] {
			return fmt.Errorf("HELP for %s appears after its samples", name)
		}
		e.Helps[name] = help
	}
	return nil
}

// parseSample parses `name{k="v",...} value` or `name value`.
func parseSample(line string) (Series, error) {
	var s Series
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = rest[:i]
	if !nameRe.MatchString(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	if rest[i] == '{' {
		labels, after, err := parseLabels(rest[i+1:])
		if err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		s.Labels = labels
		rest = after
	} else {
		rest = rest[i:]
	}
	rest = strings.TrimSpace(rest)
	if rest == "" || strings.ContainsAny(rest, " \t") {
		return s, fmt.Errorf("expected single value in %q", line)
	}
	v, err := parseValue(rest)
	if err != nil {
		return s, fmt.Errorf("bad value %q in %q", rest, line)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a label set from just after its '{' and returns
// the labels and what follows the set's closing '}'. A '}' inside a
// quoted value does not close the set.
func parseLabels(body string) (map[string]string, string, error) {
	labels := make(map[string]string)
	for {
		if body == "" {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		if body[0] == '}' {
			return labels, body[1:], nil
		}
		eq := strings.Index(body, "=")
		if eq < 0 {
			return nil, "", fmt.Errorf("label without value")
		}
		key := body[:eq]
		if !nameRe.MatchString(key) {
			return nil, "", fmt.Errorf("invalid label name %q", key)
		}
		body = body[eq+1:]
		if body == "" || body[0] != '"' {
			return nil, "", fmt.Errorf("label value for %s not quoted", key)
		}
		// Find the closing quote, honoring backslash escapes.
		end := -1
		for j := 1; j < len(body); j++ {
			if body[j] == '\\' {
				j++
				continue
			}
			if body[j] == '"' {
				end = j
				break
			}
		}
		if end < 0 {
			return nil, "", fmt.Errorf("unterminated label value for %s", key)
		}
		val, err := strconv.Unquote(body[:end+1])
		if err != nil {
			return nil, "", fmt.Errorf("bad label value for %s: %v", key, err)
		}
		if _, dup := labels[key]; dup {
			return nil, "", fmt.Errorf("duplicate label %s", key)
		}
		labels[key] = val
		body = body[end+1:]
		switch {
		case strings.HasPrefix(body, ","):
			body = body[1:]
		case body != "" && body[0] != '}':
			return nil, "", fmt.Errorf("expected ',' between labels")
		}
	}
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// FamilyOf strips histogram sample suffixes (_bucket, _sum, _count) to
// recover the family name a TYPE/HELP comment would use. Exported for
// consumers that regroup parsed samples by family — e.g. the cluster
// metrics federation endpoint.
func FamilyOf(name string) string { return familyOf(name) }

// familyOf strips histogram sample suffixes to recover the family name
// a TYPE/HELP comment would use.
func familyOf(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// LintPrometheusText parses and then cross-checks the exposition:
// every sample's family has TYPE and HELP, histogram families have
// cumulative buckets ending in le="+Inf", the +Inf bucket equals
// _count, and _sum/_count are present for every histogram series.
func LintPrometheusText(r io.Reader) (*Exposition, error) {
	exp, err := ParsePrometheusText(r)
	if err != nil {
		return nil, err
	}

	// Group histogram samples by family + non-le labels.
	type histSeries struct {
		buckets  []Series // in emission order
		hasSum   bool
		hasCount bool
		count    float64
	}
	hists := make(map[string]*histSeries)
	histKey := func(family string, labels map[string]string) string {
		rest := make(map[string]string, len(labels))
		for k, v := range labels {
			if k != "le" {
				rest[k] = v
			}
		}
		return Series{Name: family, Labels: rest}.Key()
	}

	for _, s := range exp.Series {
		family := s.Name
		isHistSample := false
		if typ, ok := exp.Types[familyOf(s.Name)]; ok && typ == "histogram" && familyOf(s.Name) != s.Name {
			family = familyOf(s.Name)
			isHistSample = true
		}
		if _, ok := exp.Types[family]; !ok {
			return nil, fmt.Errorf("series %s has no TYPE", s.Key())
		}
		if _, ok := exp.Helps[family]; !ok {
			return nil, fmt.Errorf("series %s has no HELP", s.Key())
		}
		if exp.Types[family] == "histogram" && !isHistSample {
			return nil, fmt.Errorf("histogram family %s has bare sample %s", family, s.Key())
		}
		if !isHistSample {
			continue
		}
		hk := histKey(family, s.Labels)
		h := hists[hk]
		if h == nil {
			h = &histSeries{}
			hists[hk] = h
		}
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			if _, ok := s.Labels["le"]; !ok {
				return nil, fmt.Errorf("bucket sample %s missing le label", s.Key())
			}
			h.buckets = append(h.buckets, s)
		case strings.HasSuffix(s.Name, "_sum"):
			h.hasSum = true
		case strings.HasSuffix(s.Name, "_count"):
			h.hasCount = true
			h.count = s.Value
		}
	}

	for hk, h := range hists {
		if !h.hasSum {
			return nil, fmt.Errorf("histogram %s missing _sum", hk)
		}
		if !h.hasCount {
			return nil, fmt.Errorf("histogram %s missing _count", hk)
		}
		if len(h.buckets) == 0 {
			return nil, fmt.Errorf("histogram %s has no buckets", hk)
		}
		prevBound := math.Inf(-1)
		prevCum := -1.0
		sawInf := false
		for _, b := range h.buckets {
			bound, err := parseValue(b.Labels["le"])
			if err != nil {
				return nil, fmt.Errorf("histogram %s: bad le %q", hk, b.Labels["le"])
			}
			if bound <= prevBound {
				return nil, fmt.Errorf("histogram %s: le bounds not increasing at %q", hk, b.Labels["le"])
			}
			if b.Value < prevCum {
				return nil, fmt.Errorf("histogram %s: bucket counts not cumulative at le=%q", hk, b.Labels["le"])
			}
			prevBound = bound
			prevCum = b.Value
			if math.IsInf(bound, 1) {
				sawInf = true
			}
		}
		if !sawInf {
			return nil, fmt.Errorf("histogram %s missing le=\"+Inf\" bucket", hk)
		}
		if last := h.buckets[len(h.buckets)-1]; last.Value != h.count {
			return nil, fmt.Errorf("histogram %s: +Inf bucket %v != _count %v", hk, last.Value, h.count)
		}
	}
	return exp, nil
}
