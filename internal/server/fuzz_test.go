package server

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"codelayout/internal/cachesim"
	"codelayout/internal/obs"
	"codelayout/internal/schedule"
)

// FuzzCorunScheduleBodies runs arbitrary bytes through the validation
// of POST /v1/corun and POST /v1/schedule bodies: the handlers' strict
// decoding, corunConfig and, for a schedule, Topology.Validate. No input
// may panic, every geometry accepted stays within cachesim.MaxWays, and
// every topology accepted stays within schedule.MaxTopologyDim on both
// axes with a positive capacity.
// The seeds are the adversarial bodies of TestCorunAdversarialInputs and
// TestScheduleValidation.
//
//	go test ./internal/server -run '^$' -fuzz FuzzCorunScheduleBodies -fuzztime 60s
func FuzzCorunScheduleBodies(f *testing.F) {
	for _, seed := range []string{
		`{"a":"x","b":"y"}`,
		`{"a":"x"}`,
		`{}`,
		`{"a":"x","b":"x","cache":{"SizeBytes":1000,"Assoc":3,"LineBytes":64}}`,
		`{"a":"x","b":"x","bogus":1}`,
		`{"a":"x","b":"x","cache":{"SizeBytes":1125899906842624,"Assoc":1,"LineBytes":1}}`,
		`{"a":"x","b":"x","cache":{"SizeBytes":64,"Assoc":4611686018427387904,"LineBytes":4}}`,
		`{"a":"x","b":"x","cache":{"SizeBytes":32768,"Assoc":4,"LineBytes":64}}`,
		`{"digests":["x","y"],"topology":{"domains":2,"slotsPerDomain":2}}`,
		`{"digests":["x"],"topology":{"domains":2,"slotsPerDomain":2}}`,
		`{"digests":["x","x"],"topology":{}}`,
		`{"digests":["x","x","x"],"topology":{"domains":1,"slotsPerDomain":2}}`,
		`{"digests":["x","x"],"topology":{"domains":4611686018427387904,"slotsPerDomain":4}}`,
		`{"digests":["x","x"],"topology":{"domains":4611686018427387904,"slotsPerDomain":1}}`,
		`{"digests":["x","x"],"topology":{"domains":1024,"slotsPerDomain":1024}}`,
		`{"digests":["x","x"],"topology":{"domains":2,"slotsPerDomain":2},"cache":{"SizeBytes":1125899906842624,"Assoc":1,"LineBytes":1}}`,
	} {
		f.Add([]byte(seed))
	}
	checkGeometry := func(t *testing.T, c *cachesim.Config) {
		cfg, err := corunConfig(c)
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted geometry %+v fails Validate: %v", cfg, err)
		}
		if ways := cfg.SizeBytes / cfg.LineBytes; ways > cachesim.MaxWays || cfg.Sets() <= 0 {
			t.Fatalf("accepted geometry %+v has %d ways, %d sets", cfg, ways, cfg.Sets())
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var cr corunRequest
		if decodeStrict(bytes.NewReader(body), &cr) == nil {
			checkGeometry(t, cr.Cache)
		}
		var sr scheduleRequest
		if decodeStrict(bytes.NewReader(body), &sr) == nil {
			checkGeometry(t, sr.Cache)
			topo := sr.Topology
			if topo.Validate(len(sr.Digests)) == nil &&
				(topo.Domains > schedule.MaxTopologyDim || topo.SlotsPerDomain > schedule.MaxTopologyDim || topo.Capacity() <= 0) {
				t.Fatalf("accepted topology %+v is beyond %d per axis or has capacity %d",
					topo, schedule.MaxTopologyDim, topo.Capacity())
			}
		}
	})
}

// FuzzFederatedSampleLine: federation relabels the series of untrusted
// peer expositions. Every series obs.ParsePrometheusText accepts must
// re-parse from its federatedSampleLine output with the same name and
// value, node set to the scraping node's ID, every other label kept,
// and a peer's own node label kept under the first free name of
// exported_node, exported_exported_node, ...
//
//	go test ./internal/server -run '^$' -fuzz FuzzFederatedSampleLine -fuzztime 60s
func FuzzFederatedSampleLine(f *testing.F) {
	for _, seed := range [][2]string{
		{"# TYPE a_total counter\na_total 5\n", "n1"},
		{"x{node=\"peer-own\"} 1\n", "n1"},
		{"x{node=\"a\",exported_node=\"b\"} 1\nx{node=\"c\",exported_node=\"d\",exported_exported_node=\"e\"} 2\n", "n1"},
		{"x{exported_node=\"b\"} 1\n", "n\"1\n"},
		{"h_bucket{le=\"+Inf\",k=\"v\"} 3\nh_sum NaN\nh_count -Inf\nz -0\n", ""},
		{"m{k=\"x}y\",j=\"a\\\"}\\\\\\xff\"} 1e-300\n", "\xff"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, exposition, node string) {
		exp, err := obs.ParsePrometheusText(strings.NewReader(exposition))
		if err != nil {
			return
		}
		for _, sr := range exp.Series {
			line := federatedSampleLine(node, sr)
			out, err := obs.ParsePrometheusText(strings.NewReader(line + "\n"))
			if err != nil || len(out.Series) != 1 {
				t.Fatalf("series %s: federated line %q does not parse back: %v", sr.Key(), line, err)
			}
			got := out.Series[0]
			sameValue := got.Value == sr.Value && math.Signbit(got.Value) == math.Signbit(sr.Value) ||
				math.IsNaN(got.Value) && math.IsNaN(sr.Value)
			if got.Name != sr.Name || !sameValue || got.Labels["node"] != node {
				t.Fatalf("series %s: federated line %q parses to %s = %v", sr.Key(), line, got.Key(), got.Value)
			}
			if len(got.Labels) != len(sr.Labels)+1 {
				t.Fatalf("series %s: federated line %q has labels %v", sr.Key(), line, got.Labels)
			}
			exported := ""
			for k, v := range got.Labels {
				if k == "node" {
					continue
				}
				if want, ok := sr.Labels[k]; ok {
					if v != want {
						t.Fatalf("series %s: label %s = %q after federation", sr.Key(), k, v)
					}
					continue
				}
				exported = k
				if want, ok := sr.Labels["node"]; !ok || v != want {
					t.Fatalf("series %s: federation added label %s = %q", sr.Key(), k, v)
				}
			}
			if _, ok := sr.Labels["node"]; ok {
				base := exported
				for strings.HasPrefix(base, "exported_") {
					base = strings.TrimPrefix(base, "exported_")
				}
				if base != "node" || exported == "node" {
					t.Fatalf("series %s: peer node label exported as %q", sr.Key(), exported)
				}
			}
		}
	})
}
