package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"

	"codelayout/internal/cachesim"
	"codelayout/internal/core"
	"codelayout/internal/layout"
	"codelayout/internal/parallel"
	"codelayout/internal/schedule"
	"codelayout/internal/server"
)

// refResult is the serial buffered reference for one optimize input.
type refResult struct {
	seq           []int32
	before, after float64
}

// reference runs core.Optimizer{Workers: 1}.OptimizeCtx and the two solo
// simulations the server reports, on the decoded input.
func reference(ctx context.Context, p *plan, in int, opt string, prune int) (refResult, error) {
	o, err := core.OptimizerByName(opt)
	if err != nil {
		return refResult{}, err
	}
	o.Workers, o.PruneTopN = 1, prune
	tr, err := p.inputs[in].decode()
	if err != nil {
		return refResult{}, err
	}
	prog := p.progs[p.inputs[in].prog]
	l, rep, err := o.OptimizeCtx(ctx, &core.Profile{Prog: prog, Blocks: tr})
	if err != nil {
		return refResult{}, err
	}
	cfg := cachesim.L1IDefault
	before := cachesim.SimulateSoloCtx(ctx, cfg, layout.NewReplayer(layout.Original(prog), tr, cfg.LineBytes, false))
	after := cachesim.SimulateSoloCtx(ctx, cfg, layout.NewReplayer(l, tr, cfg.LineBytes, false))
	return refResult{seq: rep.Sequence, before: before.Stats.MissRatio(), after: after.Stats.MissRatio()}, nil
}

// checkSample picks the optimize results to compare against the
// reference: one seeded pick from every (kind, program, optimizer,
// path, node) group, so each combination the workload ran is covered
// on every node it reached, cache hits included.
func checkSample(p *plan, results []opResult) []*opResult {
	byGroup := map[string][]*opResult{}
	for i := range results {
		r := &results[i]
		if r.err != nil || r.result == nil {
			continue
		}
		o := p.subject(r.op)
		tiled := p.inputs[o.input].tiles > 1
		k := fmt.Sprintf("%s|%s|%s|%s|%d|%v", kindOf(r), o.prog, o.opt, o.path, r.op.node, tiled)
		byGroup[k] = append(byGroup[k], r)
	}
	keys := make([]string, 0, len(byGroup))
	for k := range byGroup {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rng := rand.New(rand.NewSource(p.seed))
	out := make([]*opResult, 0, len(keys))
	for _, k := range keys {
		g := byGroup[k]
		out = append(out, g[rng.Intn(len(g))])
	}
	return out
}

// checkOptimize compares each sampled result with its reference: the
// sequence and both miss ratios must match exactly. References are
// computed once per (input, optimizer, prune) on all cores.
func checkOptimize(ctx context.Context, p *plan, sample []*opResult) []error {
	type key struct {
		in    int
		opt   string
		prune int
	}
	var keys []key
	idx := map[key]int{}
	keyOf := func(r *opResult) key {
		o := p.subject(r.op)
		return key{o.input, o.opt, o.prune}
	}
	for _, r := range sample {
		k := keyOf(r)
		if _, ok := idx[k]; !ok {
			idx[k] = len(keys)
			keys = append(keys, k)
		}
	}
	refs := make([]refResult, len(keys))
	errs := make([]error, len(keys))
	parallel.ForEachCtx(ctx, 0, len(keys), func(ctx context.Context, i int) error {
		refs[i], errs[i] = reference(ctx, p, keys[i].in, keys[i].opt, keys[i].prune)
		return nil
	})
	var bad []error
	for _, r := range sample {
		i := idx[keyOf(r)]
		if errs[i] != nil {
			bad = append(bad, fmt.Errorf("op %d: reference: %w", r.op.id, errs[i]))
			continue
		}
		ref, got := refs[i], r.result
		switch {
		case !slices.Equal(got.Report.Sequence, ref.seq):
			bad = append(bad, fmt.Errorf("op %d (%s %s %s): sequence differs from the serial buffered reference", r.op.id, kindOf(r), got.Prog, got.Optimizer))
		case got.MissBefore != ref.before || got.MissAfter != ref.after:
			bad = append(bad, fmt.Errorf("op %d (%s %s %s): miss ratios %v/%v, reference %v/%v",
				r.op.id, kindOf(r), got.Prog, got.Optimizer, got.MissBefore, got.MissAfter, ref.before, ref.after))
		}
	}
	return bad
}

// checkCorunDoc checks a co-run document against the same pair asked
// the other way round: the two must be identical.
func checkCorunDoc(a, b *server.CorunDoc) error {
	x, y := *a, *b
	x.ElapsedMS, y.ElapsedMS = 0, 0
	if !reflect.DeepEqual(x, y) {
		return fmt.Errorf("co-run document %s differs between (a,b) and (b,a)", a.Digest)
	}
	return nil
}

// checkScheduleDoc checks the matrix is symmetric with a zero diagonal,
// every cell equals its pair document's PairCost, and the placement is
// valid and no worse than the known worst case.
func checkScheduleDoc(doc *server.ScheduleDoc, pairCost func(i, j int) (float64, error)) error {
	n := len(doc.Digests)
	if len(doc.Matrix) != n {
		return fmt.Errorf("schedule %s: %d matrix rows for %d digests", doc.Digest, len(doc.Matrix), n)
	}
	if err := schedule.ValidateMatrix(doc.Matrix); err != nil {
		return fmt.Errorf("schedule %s: %w", doc.Digest, err)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c, err := pairCost(i, j)
			if err != nil {
				return err
			}
			if doc.Matrix[i][j] != c {
				return fmt.Errorf("schedule %s: cell [%d][%d]=%v, pair document says %v", doc.Digest, i, j, doc.Matrix[i][j], c)
			}
		}
	}
	seen := make([]bool, n)
	if len(doc.Placement.Domains) > doc.Topology.Domains {
		return fmt.Errorf("schedule %s: %d domains, topology has %d", doc.Digest, len(doc.Placement.Domains), doc.Topology.Domains)
	}
	for _, dom := range doc.Placement.Domains {
		if len(dom) > doc.Topology.SlotsPerDomain {
			return fmt.Errorf("schedule %s: domain over capacity: %v", doc.Digest, dom)
		}
		for _, i := range dom {
			if i < 0 || i >= n || seen[i] {
				return fmt.Errorf("schedule %s: placement %v is not a partition", doc.Digest, doc.Placement.Domains)
			}
			seen[i] = true
		}
	}
	if slices.Contains(seen, false) {
		return fmt.Errorf("schedule %s: placement %v leaves a program out", doc.Digest, doc.Placement.Domains)
	}
	cost := schedule.Cost(doc.Matrix, doc.Placement.Domains)
	if math.Abs(cost-doc.Placement.Cost) > 1e-9*math.Max(1, math.Abs(cost)) {
		return fmt.Errorf("schedule %s: placement cost %v, matrix says %v", doc.Digest, doc.Placement.Cost, cost)
	}
	if doc.WorstKnown && doc.Placement.Cost > doc.WorstCost*(1+1e-12) {
		return fmt.Errorf("schedule %s: placement cost %v above the worst case %v", doc.Digest, doc.Placement.Cost, doc.WorstCost)
	}
	return nil
}

// errList collects errors from concurrent checks.
type errList struct {
	mu   sync.Mutex
	errs []error
}

func (l *errList) add(err error) {
	if err == nil {
		return
	}
	l.mu.Lock()
	l.errs = append(l.errs, err)
	l.mu.Unlock()
}
