package obs

import (
	"strings"
	"testing"
)

func parseOK(t *testing.T, text string) *Exposition {
	t.Helper()
	exp, err := ParsePrometheusText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return exp
}

func TestParseSimple(t *testing.T) {
	exp := parseOK(t, `# HELP a_total A.
# TYPE a_total counter
a_total 5
# HELP b B.
# TYPE b gauge
b{env="prod"} -3
`)
	if len(exp.Series) != 2 {
		t.Fatalf("series = %d", len(exp.Series))
	}
	if exp.Series[0].Name != "a_total" || exp.Series[0].Value != 5 {
		t.Fatalf("s0 = %+v", exp.Series[0])
	}
	if exp.Series[1].Labels["env"] != "prod" || exp.Series[1].Value != -3 {
		t.Fatalf("s1 = %+v", exp.Series[1])
	}
	if exp.Types["a_total"] != "counter" || exp.Helps["b"] != "B." {
		t.Fatalf("meta: types=%v helps=%v", exp.Types, exp.Helps)
	}
}

// TestParseEscapedLabelValue: escapes in a quoted label value decode,
// and a '}' inside the quotes does not end the label set.
func TestParseEscapedLabelValue(t *testing.T) {
	for _, c := range []struct{ text, want string }{
		{"x{k=\"a\\\"b\\\\c\"} 1\n", `a"b\c`},
		{"# TYPE m counter\nm{k=\"x}y\"} 1\n", `x}y`},
		{"# TYPE m counter\nm{k=\"x\\\"}\"} 1\n", `x"}`},
	} {
		exp := parseOK(t, c.text)
		if got := exp.Series[0].Labels["k"]; got != c.want || exp.Series[0].Value != 1 {
			t.Errorf("%q: label = %q, value %v; want %q, 1", c.text, got, exp.Series[0].Value, c.want)
		}
	}
}

// FuzzParsePrometheusText: layoutd parses its peers' expositions, which
// are untrusted. Each input is used twice. As an exposition, it must
// parse or lint to a result or an error, never a panic. As a label
// value, the registry's exposition of a counter carrying it must parse
// back to that value.
//
//	go test ./internal/obs -run '^$' -fuzz FuzzParsePrometheusText -fuzztime 60s
func FuzzParsePrometheusText(f *testing.F) {
	for _, seed := range []string{
		"# HELP a_total A.\n# TYPE a_total counter\na_total 5\n",
		"# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 4.5\nh_count 3\n",
		"m{k=\"x}y\",j=\"a\\\"}\"} 1\n",
		"a{k=\"v 1\n",
		"x}y",
		"\xff\n\"\\",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		_, _ = ParsePrometheusText(strings.NewReader(in))
		_, _ = LintPrometheusText(strings.NewReader(in))
		r := NewRegistry()
		r.CounterVec("m_total", "M.", "k").With(in).Inc()
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		exp, err := LintPrometheusText(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("label value %q: the registry's exposition fails: %v\n%s", in, err, b.String())
		}
		if len(exp.Series) != 1 || exp.Series[0].Labels["k"] != in || exp.Series[0].Value != 1 {
			t.Fatalf("label value %q: the exposition parses to %+v\n%s", in, exp.Series, b.String())
		}
	})
}

func TestParseSpecialValues(t *testing.T) {
	exp := parseOK(t, "x_bucket{le=\"+Inf\"} 3\n")
	if exp.Series[0].Labels["le"] != "+Inf" {
		t.Fatalf("le = %q", exp.Series[0].Labels["le"])
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"duplicate series":   "a 1\na 2\n",
		"duplicate labeled":  "a{k=\"v\"} 1\na{k=\"v\"} 2\n",
		"duplicate TYPE":     "# TYPE a counter\n# TYPE a counter\na 1\n",
		"duplicate HELP":     "# HELP a x\n# HELP a y\na 1\n",
		"TYPE after sample":  "a 1\n# TYPE a counter\n",
		"bad type":           "# TYPE a widget\na 1\n",
		"bad value":          "a notanumber\n",
		"trailing garbage":   "a 1 2\n",
		"unterminated label": "a{k=\"v 1\n",
		"label no quotes":    "a{k=v} 1\n",
		"duplicate label":    "a{k=\"1\",k=\"2\"} 1\n",
		"bad metric name":    "9a 1\n",
		"no value":           "a_total\n",
	}
	for name, text := range cases {
		if _, err := ParsePrometheusText(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parse accepted %q", name, text)
		}
	}
}

func TestLintHistogramRules(t *testing.T) {
	good := `# HELP h H.
# TYPE h histogram
h_bucket{le="1"} 2
h_bucket{le="+Inf"} 3
h_sum 4.5
h_count 3
`
	if _, err := LintPrometheusText(strings.NewReader(good)); err != nil {
		t.Fatalf("good histogram rejected: %v", err)
	}

	cases := map[string]string{
		"no TYPE": "a 1\n",
		"no HELP": "# TYPE a counter\na 1\n",
		"non-cumulative buckets": `# HELP h H.
# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="+Inf"} 3
h_sum 1
h_count 3
`,
		"missing +Inf": `# HELP h H.
# TYPE h histogram
h_bucket{le="1"} 2
h_sum 1
h_count 2
`,
		"inf bucket != count": `# HELP h H.
# TYPE h histogram
h_bucket{le="+Inf"} 2
h_sum 1
h_count 3
`,
		"missing _sum": `# HELP h H.
# TYPE h histogram
h_bucket{le="+Inf"} 2
h_count 2
`,
		"missing _count": `# HELP h H.
# TYPE h histogram
h_bucket{le="+Inf"} 2
h_sum 1
`,
		"bare histogram sample": `# HELP h H.
# TYPE h histogram
h 2
`,
		"bucket missing le": `# HELP h H.
# TYPE h histogram
h_bucket 2
h_bucket{le="+Inf"} 2
h_sum 1
h_count 2
`,
	}
	for name, text := range cases {
		if _, err := LintPrometheusText(strings.NewReader(text)); err == nil {
			t.Errorf("%s: lint accepted\n%s", name, text)
		}
	}
}

func TestLintHistogramPerLabelSeries(t *testing.T) {
	// Two labeled histogram series; each must be checked independently.
	text := `# HELP h H.
# TYPE h histogram
h_bucket{phase="a",le="1"} 1
h_bucket{phase="a",le="+Inf"} 1
h_sum{phase="a"} 0.5
h_count{phase="a"} 1
h_bucket{phase="b",le="1"} 0
h_bucket{phase="b",le="+Inf"} 2
h_sum{phase="b"} 9
h_count{phase="b"} 2
`
	if _, err := LintPrometheusText(strings.NewReader(text)); err != nil {
		t.Fatalf("labeled histograms rejected: %v", err)
	}
	bad := strings.Replace(text, `h_count{phase="b"} 2`, `h_count{phase="b"} 7`, 1)
	if _, err := LintPrometheusText(strings.NewReader(bad)); err == nil {
		t.Fatal("mismatched labeled histogram accepted")
	}
}
