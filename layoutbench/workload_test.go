package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"codelayout/internal/trace"
)

// testRefs truncates profiles so plans build quickly under -race.
const testRefs = 4000

func testPlan(t *testing.T, name string, seed int64, seconds float64) *plan {
	t.Helper()
	spec, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := makePlan(context.Background(), spec, seed, seconds, testRefs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fingerprint renders a plan's ops and inputs byte for byte.
func fingerprint(p *plan) []byte {
	var b bytes.Buffer
	for _, list := range [][]op{p.corpus, p.warmup, p.ops} {
		for _, o := range list {
			fmt.Fprintf(&b, "%+v\n", o)
		}
	}
	for i := range p.inputs {
		in := &p.inputs[i]
		fmt.Fprintf(&b, "%s %d %d %s\n", in.prog, in.seed, in.tiles, in.digest)
		b.Write(in.bytes())
	}
	return b.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := fingerprint(testPlan(t, w.name, 7, 1))
			b := fingerprint(testPlan(t, w.name, 7, 1))
			if !bytes.Equal(a, b) {
				t.Fatal("the same seed gave different ops or inputs")
			}
			if c := fingerprint(testPlan(t, w.name, 8, 1)); bytes.Equal(a, c) {
				t.Fatal("different seeds gave the same ops and inputs")
			}
		})
	}
}

// coldKey is what makes an optimize op cold: the server's content
// address covers exactly these fields.
type coldKey struct {
	digest, prog, opt string
	prune             int
}

// A cold op must never turn into a cache hit: no (trace, program,
// optimizer, prune) key repeats across warm-up and timed ops.
func TestColdWorkloadsNeverRepeatAKey(t *testing.T) {
	for _, name := range []string{"analysis", "ingest"} {
		t.Run(name, func(t *testing.T) {
			p := testPlan(t, name, 3, 2)
			seen := map[coldKey]int{}
			for _, list := range [][]op{p.warmup, p.ops} {
				for i := range list {
					o := &list[i]
					k := coldKey{p.inputs[o.input].digest, o.prog, o.opt, o.prune}
					if prev, ok := seen[k]; ok {
						t.Fatalf("op %d repeats op %d's key %+v", list[i].id, prev, k)
					}
					seen[k] = list[i].id
				}
			}
			if len(p.corpus) != 0 {
				t.Fatalf("cold workload has a corpus of %d", len(p.corpus))
			}
		})
	}
}

func TestWorkloadShapes(t *testing.T) {
	p := testPlan(t, "analysis", 1, 4)
	buffered := 0
	for _, o := range p.ops {
		if o.path == pathBuffered {
			buffered++
			if o.prune == 0 || o.prune >= p.progs[o.prog].NumBlocks() {
				t.Errorf("buffered op %d has prune %d", o.id, o.prune)
			}
		}
		if o.opt == "bb-trg" && !slices.Contains(trgPrograms, o.prog) {
			t.Errorf("bb-trg op on %s", o.prog)
		}
	}
	if share := float64(buffered) / float64(len(p.ops)); share < 0.15 || share > 0.35 {
		t.Errorf("analysis buffered share %.2f, want about a quarter", share)
	}

	p = testPlan(t, "ingest", 1, 2)
	tiled, nodes := 0, map[int]bool{}
	for _, o := range p.ops {
		nodes[o.node] = true
		if in := &p.inputs[o.input]; in.tiles > 1 {
			tiled++
			if o.path != pathFeed {
				t.Errorf("tiled op %d takes the %s path", o.id, o.path)
			}
		}
	}
	for _, refs := range []int{244218, 277204, 310767} {
		if n := overWindowTiles(refs) * refs * 4; n <= streamWindow {
			t.Errorf("%d-reference profile tiles to %d bytes, not over the window", refs, n)
		}
	}
	if share := float64(tiled) / float64(len(p.ops)); share < 0.05 || share > 0.15 {
		t.Errorf("ingest tiled share %.2f, want about a tenth", share)
	}
	if len(nodes) != 3 {
		t.Errorf("ingest reaches nodes %v, want all three", nodes)
	}

	p = testPlan(t, "warm-mix", 1, 10)
	if len(p.corpus) <= 32 {
		t.Errorf("corpus of %d does not exceed the 32-entry trace cache", len(p.corpus))
	}
	if want := int(p.spec.maxRate * 10); len(p.ops) != want {
		t.Errorf("warm-mix has %d ops, want %d", len(p.ops), want)
	}
	pairs := map[[2]int]bool{}
	for _, o := range p.ops {
		if o.kind == kindSubmit && len(o.entries) != 1 {
			t.Errorf("warm-mix submit %d is not a resubmit", o.id)
		}
		if o.kind == kindCorun {
			k := [2]int{min(o.entries[0], o.entries[1]), max(o.entries[0], o.entries[1])}
			if k[0] == k[1] || pairs[k] {
				t.Errorf("warm-mix co-run %d repeats or self-pairs %v", o.id, o.entries)
			}
			pairs[k] = true
		}
	}
}

// A tiled input streams exactly the bytes its full trace encodes to.
func TestTiledReaderMatchesEncoding(t *testing.T) {
	p := testPlan(t, "ingest", 5, 1)
	checked := 0
	for i := range p.inputs {
		in := &p.inputs[i]
		if in.tiles <= 1 {
			continue
		}
		tr, err := in.decode()
		if err != nil {
			t.Fatal(err)
		}
		one, err := trace.ReadFrom(bytes.NewReader(in.tile))
		if err != nil {
			t.Fatal(err)
		}
		var want []int32
		for k := 0; k < in.tiles; k++ {
			want = append(want, one.Syms...)
		}
		if !reflect.DeepEqual(tr.Syms, want) {
			t.Fatalf("input %d: tiled stream decodes to a different trace", i)
		}
		var enc bytes.Buffer
		trace.New(want).WriteTo(&enc)
		if !bytes.Equal(enc.Bytes(), in.bytes()) || int64(enc.Len()) != in.size {
			t.Fatalf("input %d: tiled stream differs from the canonical encoding", i)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no tiled inputs")
	}
}
