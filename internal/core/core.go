// Package core assembles the paper's contribution: the whole-program
// code layout optimizers. Each optimizer is a pipeline
//
//	profile (test input) -> trimmed code trace -> popularity pruning ->
//	locality model (w-window affinity or TRG) -> code sequence ->
//	transformation (function or inter-procedural basic-block reordering)
//
// yielding the paper's four optimized binaries: function affinity,
// basic-block affinity, function TRG and basic-block TRG (§II-F).
package core

import (
	"cmp"
	"context"
	"fmt"

	"codelayout/internal/affinity"
	"codelayout/internal/cachesim"
	"codelayout/internal/callgraph"
	"codelayout/internal/cmg"
	"codelayout/internal/interp"
	"codelayout/internal/ir"
	"codelayout/internal/layout"
	"codelayout/internal/obs"
	"codelayout/internal/progen"
	"codelayout/internal/search"
	"codelayout/internal/trace"
	"codelayout/internal/trg"
)

// Model selects the locality model.
type Model int

const (
	// ModelAffinity is the paper's extended reference affinity (§II-B).
	ModelAffinity Model = iota
	// ModelTRG is the temporal relationship graph (§II-C).
	ModelTRG
	// ModelCMG is the Conflict Miss Graph of Kalamatianos & Kaeli, the
	// TRG sibling named in the paper's related work; a comparison
	// baseline.
	ModelCMG
	// ModelCallGraph is Pettis-Hansen call-graph placement, the
	// classic procedure-positioning baseline; function granularity
	// only.
	ModelCallGraph
	// ModelSearch is direct local search over function orders against
	// the TRG-weighted conflict cost — the Petrank-Rawitz-wall
	// reference point of §III-D; function granularity only.
	ModelSearch
)

func (m Model) String() string {
	switch m {
	case ModelAffinity:
		return "affinity"
	case ModelTRG:
		return "trg"
	case ModelCMG:
		return "cmg"
	case ModelCallGraph:
		return "callgraph"
	case ModelSearch:
		return "search"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// Granularity selects the reordered code unit.
type Granularity int

const (
	// GranFunction reorders whole functions (§II-D).
	GranFunction Granularity = iota
	// GranBasicBlock reorders basic blocks across functions (§II-E).
	GranBasicBlock
)

func (g Granularity) String() string {
	switch g {
	case GranFunction:
		return "func"
	case GranBasicBlock:
		return "bb"
	default:
		return fmt.Sprintf("gran(%d)", int(g))
	}
}

// Input seeds: the training seed stands in for SPEC's test input (used
// for profiling) and the evaluation seed for the reference input (used
// for measurement), so an optimizer is never judged on its training
// trace.
const (
	TrainSeed = 101
	EvalSeed  = 202
)

// DefaultPruneTopN is the paper's trace-pruning bound: "selecting the
// 10,000 most frequently executed basic blocks".
const DefaultPruneTopN = 10000

// Optimizer is one of the paper's four code-layout optimizers or one of
// the comparison baselines.
type Optimizer struct {
	Model Model
	Gran  Granularity
	// Intra restricts basic-block reordering to within each function —
	// the intra-procedural baseline the paper contrasts against. Only
	// meaningful with GranBasicBlock.
	Intra bool

	// WMax bounds the affinity analysis window range (paper: 2..20);
	// 0 means affinity.DefaultWMax.
	WMax int
	// TRGBlockBytes is the uniform code block size the TRG model
	// assumes ("we assume the same size for every function and basic
	// block"); 0 means 512 bytes at function granularity and 64 bytes
	// at basic-block granularity.
	TRGBlockBytes int
	// TRGWindowScale overrides the Gloy-Smith 2x cache window; 0 keeps 2.
	TRGWindowScale int
	// PruneTopN bounds the trace alphabet before analysis; 0 means
	// DefaultPruneTopN.
	PruneTopN int

	// Workers bounds the concurrency of the analysis phase (affinity
	// stack passes, TRG sharding): 0 means every available core, 1 pins
	// the serial reference path. It is an execution knob, not a model
	// parameter — the layout is identical for every setting.
	Workers int
	// Arena recycles the analysis kernels' internal buffers across
	// Optimize calls; nil allocates fresh buffers per call. Like Workers
	// it is an execution knob only — the layout is identical either way.
	Arena *Arena

	// feedShardSpan overrides the kernels' shard span (in trimmed
	// occurrences); 0 keeps their defaults. Only this package's tests
	// set it, to force many shards on small traces.
	feedShardSpan int
}

// Arena bundles the analysis kernels' buffer pools so a long-lived
// caller (layoutd running repeated jobs) can reuse every hot-path
// allocation across optimizations. The zero value is ready to use and
// safe for concurrent use; nil is a valid "no reuse" arena.
type Arena struct {
	Affinity affinity.Arena
	TRG      trg.Arena
}

func (a *Arena) affinityArena() *affinity.Arena {
	if a == nil {
		return nil
	}
	return &a.Affinity
}

func (a *Arena) trgArena() *trg.Arena {
	if a == nil {
		return nil
	}
	return &a.TRG
}

// The four optimizers evaluated in the paper.
func FuncAffinity() Optimizer { return Optimizer{Model: ModelAffinity, Gran: GranFunction} }
func BBAffinity() Optimizer   { return Optimizer{Model: ModelAffinity, Gran: GranBasicBlock} }
func FuncTRG() Optimizer      { return Optimizer{Model: ModelTRG, Gran: GranFunction} }
func BBTRG() Optimizer        { return Optimizer{Model: ModelTRG, Gran: GranBasicBlock} }

// Comparison baselines from the related-work tradition (DESIGN.md §6).
func FuncCallGraph() Optimizer { return Optimizer{Model: ModelCallGraph, Gran: GranFunction} }
func FuncCMG() Optimizer       { return Optimizer{Model: ModelCMG, Gran: GranFunction} }
func BBAffinityIntra() Optimizer {
	return Optimizer{Model: ModelAffinity, Gran: GranBasicBlock, Intra: true}
}
func FuncSearch() Optimizer { return Optimizer{Model: ModelSearch, Gran: GranFunction} }

// AllOptimizers returns the four paper optimizers in the paper's order.
func AllOptimizers() []Optimizer {
	return []Optimizer{FuncAffinity(), BBAffinity(), FuncTRG(), BBTRG()}
}

// AllWithBaselines returns the paper optimizers plus the comparison
// baselines used by the extension experiment.
func AllWithBaselines() []Optimizer {
	return append(AllOptimizers(), FuncCallGraph(), FuncCMG(), BBAffinityIntra(), FuncSearch())
}

// OptimizerNames returns the names of AllWithBaselines in their
// canonical order — the registry layoutd advertises.
func OptimizerNames() []string {
	all := AllWithBaselines()
	names := make([]string, len(all))
	for i, o := range all {
		names[i] = o.Name()
	}
	return names
}

// OptimizerByName resolves a short name from OptimizerNames to its
// optimizer configuration. It is the lookup the serving layer and the
// experiment harness use to map request parameters to a pipeline.
func OptimizerByName(name string) (Optimizer, error) {
	for _, o := range AllWithBaselines() {
		if o.Name() == name {
			return o, nil
		}
	}
	return Optimizer{}, fmt.Errorf("core: unknown optimizer %q (known: %v)", name, OptimizerNames())
}

// Name returns the optimizer's short name, e.g. "bb-affinity".
func (o Optimizer) Name() string {
	n := o.Gran.String() + "-" + o.Model.String()
	if o.Intra {
		n += "-intra"
	}
	return n
}

// Profile is a training run of a program.
type Profile struct {
	Prog *ir.Program
	// Blocks is the raw basic-block trace of the training input.
	Blocks *trace.Trace
	// Steps and DynamicBytes summarize the run.
	Steps        int
	DynamicBytes int64
}

// ProfileProgram instruments and runs the program on the given input
// seed, like the paper's instrumentation + test-input run.
func ProfileProgram(p *ir.Program, seed int64) (*Profile, error) {
	res, err := interp.Run(p, interp.Options{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("core: profiling %s: %w", p.Name, err)
	}
	if !res.Completed {
		return nil, fmt.Errorf("core: profiling %s: hit step cap after %d steps", p.Name, res.Steps)
	}
	return &Profile{Prog: p, Blocks: res.Blocks, Steps: res.Steps, DynamicBytes: res.DynamicBytes}, nil
}

// Report describes one optimization for diagnostics and the paper's
// system tables.
type Report struct {
	Optimizer string
	// TraceLen is the trimmed trace length analyzed.
	TraceLen int
	// Retention is the fraction of the trace kept by pruning.
	Retention float64
	// SeqLen is the number of code units the model ordered.
	SeqLen int
	// Sequence is the model's code-unit order (function IDs at
	// GranFunction, block IDs at GranBasicBlock) that produced the
	// layout — the artifact layoutd serves back to clients.
	Sequence []int32 `json:",omitempty"`
	// JumpOverheadBytes is the code-size cost of the transformation.
	JumpOverheadBytes int64
}

// Optimize runs the full pipeline and returns the optimized layout.
func (o Optimizer) Optimize(prof *Profile) (*layout.Layout, Report, error) {
	return o.OptimizeCtx(context.Background(), prof)
}

// OptimizeCtx is Optimize with cancellation: the analysis kernels poll
// ctx inside their shard loops, so a job deadline interrupts a long
// analysis mid-phase instead of waiting for the pipeline to finish.
func (o Optimizer) OptimizeCtx(ctx context.Context, prof *Profile) (*layout.Layout, Report, error) {
	rep := Report{Optimizer: o.Name()}
	if prof == nil || prof.Prog == nil || prof.Blocks == nil {
		return nil, rep, fmt.Errorf("core: nil profile")
	}

	// 1. Granularity-specific trimmed trace (Definition 1).
	psp := obs.StartSpan(ctx, "trace.prune")
	var tt *trace.Trace
	switch o.Gran {
	case GranFunction:
		tt = trace.FuncTrace(prof.Prog, prof.Blocks)
	case GranBasicBlock:
		tt = prof.Blocks.Trimmed()
	default:
		psp.End()
		return nil, rep, fmt.Errorf("core: unknown granularity %v", o.Gran)
	}

	// 2. Popularity pruning (§II-F). A bound that covers the alphabet
	// keeps every occurrence, so the trimmed trace is analyzed as it is.
	rep.Retention = 1
	if n, keepsAll := o.pruneBound(prof.Prog); !keepsAll {
		tt, rep.Retention = tt.PruneTopN(n)
		// Pruning can produce new consecutive duplicates; re-trim.
		tt = tt.Trimmed()
	}
	rep.TraceLen = tt.Len()
	psp.SetAttr("kept", int64(tt.Len()))
	psp.End()

	// 3. Locality model.
	var seq []int32
	var err error
	switch o.Model {
	case ModelAffinity:
		seq, err = o.affinitySequence(affinity.BuildHierarchyCtx(ctx, tt, o.affinityOptions()))
	case ModelTRG:
		g, gerr := o.trgGraph(ctx, tt)
		seq, err = o.trgSequence(ctx, g, gerr)
	case ModelCMG:
		csp := obs.StartSpan(ctx, "cmg.sequence")
		seq = cmg.Sequence(tt, o.trgParams())
		csp.End()
	case ModelCallGraph:
		if o.Gran != GranFunction {
			return nil, rep, fmt.Errorf("core: call-graph placement reorders functions only")
		}
		gsp := obs.StartSpan(ctx, "callgraph.build")
		seq = callgraph.Build(prof.Prog, prof.Blocks).Order()
		gsp.End()
	case ModelSearch:
		if o.Gran != GranFunction {
			return nil, rep, fmt.Errorf("core: layout search reorders functions only")
		}
		seq, err = o.searchSequence(ctx, prof.Prog, tt)
	default:
		return nil, rep, fmt.Errorf("core: unknown model %v", o.Model)
	}
	if err != nil {
		return nil, rep, err
	}

	// 4. Transformation.
	return o.emitLayout(ctx, prof.Prog, seq, rep)
}

// pruneBound returns the effective popularity-pruning bound n, and
// whether it provably keeps every occurrence of prog's traces: n covers
// the program's whole alphabet at this granularity, so every symbol is
// kept and retention is exactly 1.0. The answer is the same for every
// model.
func (o Optimizer) pruneBound(prog *ir.Program) (n int, keepsAll bool) {
	n = cmp.Or(o.PruneTopN, DefaultPruneTopN)
	switch o.Gran {
	case GranFunction:
		return n, n >= prog.NumFuncs()
	case GranBasicBlock:
		return n, n >= prog.NumBlocks()
	}
	return n, false
}

// affinityOptions configures the affinity kernel. It, trgGraph and the
// two finishing steps below are each model's one configuration and one
// ending, shared by OptimizeCtx, the streaming Feed and the layout
// search.
func (o Optimizer) affinityOptions() affinity.Options {
	return affinity.Options{
		WMax: o.WMax, Workers: o.Workers, Arena: o.Arena.affinityArena(), FeedShardSpan: o.feedShardSpan,
	}
}

// trgGraph builds the TRG of a trimmed trace held in memory under a
// trg.build span.
func (o Optimizer) trgGraph(ctx context.Context, tt *trace.Trace) (*trg.Graph, error) {
	sp := obs.StartSpan(ctx, "trg.build")
	defer sp.End()
	g, err := trg.BuildCtx(ctx, tt, o.trgParams().WindowBlocks(), o.Workers, o.Arena.trgArena())
	if err == nil {
		sp.SetAttr("nodes", int64(len(g.Nodes())))
	}
	return g, err
}

// analysisErr wraps a kernel's failure (a canceled or expired ctx).
func (o Optimizer) analysisErr(err error) error {
	return fmt.Errorf("core: %s analysis: %w", o.Name(), err)
}

// affinitySequence ends an affinity analysis: the hierarchy's code
// sequence, or the build's error.
func (o Optimizer) affinitySequence(h *affinity.Hierarchy, err error) ([]int32, error) {
	if err != nil {
		return nil, o.analysisErr(err)
	}
	return h.Sequence(), nil
}

// trgSequence ends a TRG analysis: the graph reduced into the cache's
// slots under a trg.reduce span and recycled, or the build's error.
func (o Optimizer) trgSequence(ctx context.Context, g *trg.Graph, err error) ([]int32, error) {
	if err != nil {
		return nil, o.analysisErr(err)
	}
	sp := obs.StartSpan(ctx, "trg.reduce")
	seq := trg.Reduce(g, o.trgParams().Slots())
	sp.SetAttr("seq_len", int64(len(seq)))
	sp.End()
	o.Arena.trgArena().PutGraph(g)
	return seq, nil
}

// emitLayout is the pipeline's transformation step: turn the model's
// code sequence into a validated layout, and complete rep with the
// sequence and its costs. Shared by OptimizeCtx and the streaming Feed.
func (o Optimizer) emitLayout(ctx context.Context, prog *ir.Program, seq []int32, rep Report) (*layout.Layout, Report, error) {
	rep.SeqLen = len(seq)
	rep.Sequence = seq
	esp := obs.StartSpan(ctx, "layout.emit")
	esp.SetAttr("seq_len", int64(len(seq)))
	defer esp.End()
	l, err := o.layoutOf(prog, seq)
	if err != nil {
		return nil, rep, fmt.Errorf("core: %s produced invalid layout: %w", o.Name(), err)
	}
	rep.JumpOverheadBytes = l.JumpOverheadBytes()
	return l, rep, nil
}

// layoutOf turns a code sequence into a validated layout at the
// optimizer's granularity (function order, or block order with or
// without the intra restriction): the one sequence-to-layout step of
// emitLayout and LayoutFromSequence.
func (o Optimizer) layoutOf(prog *ir.Program, seq []int32) (*layout.Layout, error) {
	var l *layout.Layout
	switch o.Gran {
	case GranFunction:
		order := make([]ir.FuncID, len(seq))
		for i, s := range seq {
			order[i] = ir.FuncID(s)
		}
		l = layout.ReorderFunctions(prog, order)
	case GranBasicBlock:
		order := make([]ir.BlockID, len(seq))
		for i, s := range seq {
			order[i] = ir.BlockID(s)
		}
		if o.Intra {
			l = layout.ReorderBlocksIntra(prog, order)
		} else {
			l = layout.ReorderBlocks(prog, order)
		}
	default:
		return nil, fmt.Errorf("core: unknown granularity %v", o.Gran)
	}
	return l, l.Validate()
}

// searchSequence runs the Petrank-Rawitz-wall local search: TRG-weighted
// conflict cost, seeded from the affinity order.
func (o Optimizer) searchSequence(ctx context.Context, prog *ir.Program, tt *trace.Trace) ([]int32, error) {
	params := o.trgParams()
	g, err := o.trgGraph(ctx, tt)
	if err != nil {
		return nil, o.analysisErr(err)
	}
	cost := search.ConflictCost(prog, g, cachesim.Config{
		SizeBytes: params.CacheBytes, Assoc: params.Assoc, LineBytes: params.LineBytes,
	})
	o.Arena.trgArena().PutGraph(g)
	seed, err := o.affinitySequence(affinity.BuildHierarchyCtx(ctx, tt, o.affinityOptions()))
	if err != nil {
		return nil, err
	}
	initial := make([]ir.FuncID, 0, prog.NumFuncs())
	for _, s := range seed {
		initial = append(initial, ir.FuncID(s))
	}
	initial = layout.CompleteFuncOrder(prog, initial)
	ssp := obs.StartSpan(ctx, "search.improve")
	res := search.Improve(initial, cost, search.Options{Seed: 1})
	ssp.End()
	out := make([]int32, len(res.Order))
	for i, f := range res.Order {
		out[i] = int32(f)
	}
	return out, nil
}

// trgParams is the TRG model's configuration for this optimizer: the
// paper's cache, TRGBlockBytes as the uniform block size (by default
// 512 bytes per function and 64 per basic block), TRGWindowScale and
// Workers. The CMG and the layout search take the same geometry.
func (o Optimizer) trgParams() trg.Params {
	block := o.TRGBlockBytes
	if block == 0 {
		block = 64
		if o.Gran == GranFunction {
			block = 512
		}
	}
	p := trg.DefaultParams(block)
	p.WindowScale = o.TRGWindowScale
	p.Workers = o.Workers
	return p
}

// LayoutFromSequence rebuilds the layout a cached Report describes: the
// optimizer name picks the transformation (function vs. block
// granularity, intra restriction) and seq is the Report.Sequence it
// recorded. This is how the serving layer turns a stored optimization
// result back into an address map without rerunning the analysis.
func LayoutFromSequence(p *ir.Program, optName string, seq []int32) (*layout.Layout, error) {
	if p == nil {
		return nil, fmt.Errorf("core: nil program")
	}
	o, err := OptimizerByName(optName)
	if err != nil {
		return nil, err
	}
	l, err := o.layoutOf(p, seq)
	if err != nil {
		return nil, fmt.Errorf("core: sequence for %s does not fit %s: %w", optName, p.Name, err)
	}
	return l, nil
}

// LoadProgram generates a named suite program — a convenience for the
// CLI tools and examples.
func LoadProgram(name string) (*ir.Program, error) {
	s, err := progen.SpecByName(name)
	if err != nil {
		return nil, err
	}
	return progen.Generate(s)
}
