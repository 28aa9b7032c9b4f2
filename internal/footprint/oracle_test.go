package footprint

import (
	"math/rand"
	"testing"

	"codelayout/internal/core"
	"codelayout/internal/layout"
	"codelayout/internal/parallel"
)

// newCurveWorkersTables is NewCurveWorkers as it was before the in-place
// sweep, kept verbatim as the oracle: separate reuse-time, weight and
// deficit tables beside FP, and first/last indexes per symbol.
func newCurveWorkersTables(syms []int32, weights []int32, workers int) *Curve {
	n := len(syms)
	c := &Curve{FP: make([]float64, n+1), N: n}
	if n == 0 {
		return c
	}
	maxSym := int32(0)
	for _, s := range syms {
		if s > maxSym {
			maxSym = s
		}
	}
	first := make([]int, maxSym+1)
	last := make([]int, maxSym+1)
	for i := range first {
		first[i] = -1
	}
	w := func(s int32) float64 {
		if weights == nil {
			return 1
		}
		return float64(weights[s])
	}
	// rt[t] accumulates the weight of reuses with reuse time t.
	rt := make([]float64, n+1)
	var m float64
	for t, s := range syms {
		if first[s] < 0 {
			first[s] = t
			m += w(s)
		} else {
			d := t - last[s]
			rt[d] += w(s)
		}
		last[s] = t
	}
	c.Total = m
	finishCurveTables(c, m, maxSym, first, last, rt, w, workers)
	return c
}

// finishCurveTables is the oracle's closing sweeps, verbatim.
func finishCurveTables(c *Curve, m float64, maxSym int32, first, last []int, rt []float64, w func(int32) float64, workers int) {
	n := c.N
	// wt[v] collects, per window-length value v in [1, n], the weight of
	// first-access times f = v, reverse-last times r = v (both 1-based),
	// and reuse times t = v. The three sums of the Xiang formula then
	// share one deficit: D(w) = Σ_{v>w} (v-w) * wt[v].
	wt := make([]float64, n+2)
	for s := int32(0); s <= maxSym; s++ {
		if first[s] < 0 {
			continue
		}
		wt[first[s]+1] += w(s) // f_i
		wt[n-last[s]] += w(s)  // r_i = n - last (last is 0-based)
	}
	for t := 1; t <= n && t < len(rt); t++ {
		wt[t] += rt[t]
	}

	// Reverse sweep using D(w) = D(w+1) + T(w) and T(w) = T(w+1) + wt[w+1].
	deficit := make([]float64, n+2)
	var tailWeight, tailDeficit float64
	for v := n; v >= 1; v-- {
		if v+1 <= n {
			tailWeight += wt[v+1]
		}
		tailDeficit += tailWeight
		deficit[v] = tailDeficit
	}

	chunks := parallel.Chunks(n, parallel.Workers(workers), 4096)
	_ = parallel.ForEach(workers, len(chunks), func(ci int) error {
		for win := chunks[ci][0] + 1; win <= chunks[ci][1]; win++ {
			windows := float64(n - win + 1)
			c.FP[win] = m - deficit[win]/windows
			if c.FP[win] < 0 {
				c.FP[win] = 0
			}
			if c.FP[win] > m {
				c.FP[win] = m
			}
		}
		return nil
	})
}

func curvesBitIdentical(a, b *Curve) bool {
	if a.N != b.N || a.Total != b.Total || len(a.FP) != len(b.FP) {
		return false
	}
	for i := range a.FP {
		if a.FP[i] != b.FP[i] {
			return false
		}
	}
	return true
}

// suiteLineTrace replays l over the block trace to cache-line
// references, the footprint model's input in layoutd.
func suiteLineTrace(l *layout.Layout, p *core.Profile) []int32 {
	r := layout.NewReplayer(l, p.Blocks.Trimmed(), 64, false)
	lines, _ := r.AppendLines(nil, p.Blocks.Trimmed().Len())
	out := make([]int32, len(lines))
	for i, ln := range lines {
		out[i] = int32(ln)
	}
	return out
}

// TestInPlaceCurveMatchesTables: the in-place sweep computes every FP
// slot, N and Total bit for bit as the table-based oracle did, on suite
// line traces (baseline and optimized layouts) and block traces,
// weighted and unweighted, at Workers 1 and 2, plus random traces and
// the empty and one-reference edges.
func TestInPlaceCurveMatchesTables(t *testing.T) {
	type input struct {
		name    string
		syms    []int32
		weights []int32
	}
	var inputs []input
	rng := rand.New(rand.NewSource(29))
	randWeights := func(n int) []int32 {
		w := make([]int32, n)
		for i := range w {
			w[i] = int32(1 + rng.Intn(512))
		}
		return w
	}
	for _, name := range []string{"429.mcf", "458.sjeng"} {
		p, err := core.LoadProgram(name)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := core.ProfileProgram(p, core.TrainSeed)
		if err != nil {
			t.Fatal(err)
		}
		layouts := []*layout.Layout{layout.Original(p)}
		for _, o := range []core.Optimizer{core.FuncAffinity(), core.BBAffinity()} {
			l, _, err := o.Optimize(prof)
			if err != nil {
				t.Fatalf("%s %s: %v", name, o.Name(), err)
			}
			layouts = append(layouts, l)
		}
		for _, l := range layouts {
			lines := suiteLineTrace(l, prof)
			maxLine := int32(0)
			for _, ln := range lines {
				maxLine = max(maxLine, ln)
			}
			inputs = append(inputs,
				input{name + " lines", lines, nil},
				input{name + " weighted lines", lines, randWeights(int(maxLine) + 1)})
		}
		sizes := make([]int32, p.NumBlocks())
		for b := range sizes {
			sizes[b] = p.Blocks[b].Size
		}
		inputs = append(inputs, input{name + " blocks by size", prof.Blocks.Trimmed().Syms, sizes})
	}
	random := make([]int32, 20000)
	for i := range random {
		random[i] = int32(rng.Intn(300))
	}
	inputs = append(inputs,
		input{"random", random, nil},
		input{"random weighted", random, randWeights(300)},
		input{"one reference", []int32{7}, nil},
		input{"empty", nil, nil})

	for _, in := range inputs {
		for _, workers := range []int{1, 2} {
			got := NewCurveWorkers(in.syms, in.weights, workers)
			want := newCurveWorkersTables(in.syms, in.weights, workers)
			if !curvesBitIdentical(got, want) {
				t.Fatalf("%s workers=%d: in-place curve differs from the table oracle", in.name, workers)
			}
		}
	}
}
