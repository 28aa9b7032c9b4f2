package server

import (
	"bytes"
	"testing"

	"codelayout/internal/cachesim"
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
