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
	// FeedShardSpan overrides the shard span (in trimmed occurrences)
	// the streaming Feed cuts from an arriving trace; 0 means the
	// kernels' defaults. Like Workers it is an execution knob only.
	FeedShardSpan int
	// Arena recycles the analysis kernels' internal buffers across
	// Optimize calls; nil allocates fresh buffers per call. Like Workers
	// it is an execution knob only — the layout is identical either way.
	Arena *Arena
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
	pruneN := o.PruneTopN
	if pruneN == 0 {
		pruneN = DefaultPruneTopN
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

	// 2. Popularity pruning (§II-F).
	pruned, retention := tt.PruneTopN(pruneN)
	// Pruning can produce new consecutive duplicates; re-trim.
	pruned = pruned.Trimmed()
	rep.TraceLen = pruned.Len()
	rep.Retention = retention
	psp.SetAttr("kept", int64(pruned.Len()))
	psp.End()

	// 3. Locality model.
	var seq []int32
	switch o.Model {
	case ModelAffinity:
		h, err := affinity.BuildHierarchyCtx(ctx, pruned, affinity.Options{
			WMax: o.WMax, Workers: o.Workers, Arena: o.Arena.affinityArena(),
		})
		if err != nil {
			return nil, rep, fmt.Errorf("core: %s analysis: %w", o.Name(), err)
		}
		seq = h.Sequence()
	case ModelTRG:
		var err error
		seq, err = trg.SequenceCtx(ctx, pruned, o.trgParams(), o.Arena.trgArena())
		if err != nil {
			return nil, rep, fmt.Errorf("core: %s analysis: %w", o.Name(), err)
		}
	case ModelCMG:
		csp := obs.StartSpan(ctx, "cmg.sequence")
		seq = cmg.Sequence(pruned, o.trgParams())
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
		var err error
		seq, err = searchSequence(ctx, o, prof, pruned)
		if err != nil {
			return nil, rep, fmt.Errorf("core: %s analysis: %w", o.Name(), err)
		}
	default:
		return nil, rep, fmt.Errorf("core: unknown model %v", o.Model)
	}
	rep.SeqLen = len(seq)
	rep.Sequence = seq

	// 4. Transformation.
	l, err := o.emitLayout(ctx, prof.Prog, seq, &rep)
	if err != nil {
		return nil, rep, err
	}
	return l, rep, nil
}

// emitLayout is the pipeline's transformation step: turn the model's
// code sequence into a validated layout and record its costs in rep.
// Shared by the buffered OptimizeCtx and the streaming Feed.
func (o Optimizer) emitLayout(ctx context.Context, prog *ir.Program, seq []int32, rep *Report) (*layout.Layout, error) {
	esp := obs.StartSpan(ctx, "layout.emit")
	esp.SetAttr("seq_len", int64(len(seq)))
	defer esp.End()
	l, err := o.layoutOf(prog, seq)
	if err != nil {
		return nil, fmt.Errorf("core: %s produced invalid layout: %w", o.Name(), err)
	}
	rep.JumpOverheadBytes = l.JumpOverheadBytes()
	return l, nil
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
func searchSequence(ctx context.Context, o Optimizer, prof *Profile, pruned *trace.Trace) ([]int32, error) {
	params := o.trgParams()
	g, err := trg.BuildCtx(ctx, pruned, params.WindowBlocks(), o.Workers, o.Arena.trgArena())
	if err != nil {
		return nil, err
	}
	cost := search.ConflictCost(prof.Prog, g, cachesim.Config{
		SizeBytes: params.CacheBytes, Assoc: params.Assoc, LineBytes: params.LineBytes,
	})
	h, err := affinity.BuildHierarchyCtx(ctx, pruned, affinity.Options{
		WMax: o.WMax, Workers: o.Workers, Arena: o.Arena.affinityArena(),
	})
	if err != nil {
		return nil, err
	}
	seed := h.Sequence()
	initial := make([]ir.FuncID, 0, prof.Prog.NumFuncs())
	for _, s := range seed {
		initial = append(initial, ir.FuncID(s))
	}
	initial = layout.CompleteFuncOrder(prof.Prog, initial)
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
