package core

import (
	"context"
	"fmt"

	"codelayout/internal/affinity"
	"codelayout/internal/ir"
	"codelayout/internal/layout"
	"codelayout/internal/trg"
)

// FeedSupported reports whether this optimizer can analyze prog's trace
// incrementally, chunk by chunk, with a result byte-identical to the
// buffered OptimizeCtx. Two conditions gate it:
//
//   - the model must have a streaming kernel (affinity and TRG do; the
//     baselines — CMG, call-graph, search — replay or iterate over the
//     materialized trace);
//   - popularity pruning must be provably the identity, i.e. the prune
//     bound covers the program's whole alphabet at this granularity
//     (every symbol with a non-zero count is kept and retention is
//     exactly 1.0), the condition under which OptimizeCtx skips the
//     prune. Pruning by frequency inherently needs the full trace's
//     counts, so a stream with an effective prune cannot start
//     analysis before end-of-stream.
//
// With the paper's default bound of 10,000 blocks and the generated
// suite's program sizes, the gate holds for all four paper optimizers
// at their defaults.
func (o Optimizer) FeedSupported(prog *ir.Program) bool {
	if prog == nil || (o.Model != ModelAffinity && o.Model != ModelTRG) {
		return false
	}
	_, keepsAll := o.pruneBound(prog)
	return keepsAll
}

// Feed is a streaming optimization in progress: the caller pushes
// decoded trace chunks as they arrive (layoutd, while the upload is
// still on the wire) and Finish returns the same layout and Report the
// buffered OptimizeCtx would produce from the concatenated trace.
//
// A Feed is not safe for concurrent use; push chunks from one
// goroutine, then call exactly one of Finish or Abort.
type Feed struct {
	o    Optimizer
	prog *ir.Program

	buf  []int32 // reusable granularity-mapping buffer
	prev int32   // last mapped symbol, for cross-chunk trimming

	aff  *affinity.Feeder // exactly one of aff and trgF is set
	trgF *trg.Feeder

	err  error
	done bool
}

// NewFeed starts a streaming optimization bound to ctx. It fails if
// FeedSupported is false for this optimizer and program.
func (o Optimizer) NewFeed(ctx context.Context, prog *ir.Program) (*Feed, error) {
	if !o.FeedSupported(prog) {
		return nil, fmt.Errorf("core: %s does not support feed-mode for %s", o.Name(), progName(prog))
	}
	f := &Feed{o: o, prog: prog, prev: -1}
	switch o.Model {
	case ModelAffinity:
		f.aff = affinity.NewFeeder(ctx, o.affinityOptions())
	case ModelTRG:
		f.trgF = trg.NewFeeder(ctx, o.trgParams().WindowBlocks(), o.Workers, o.feedShardSpan, o.Arena.trgArena())
	}
	return f, nil
}

func progName(p *ir.Program) string {
	if p == nil {
		return "<nil>"
	}
	return p.Name
}

// Feed pushes one chunk of the raw basic-block trace. Symbols are
// validated against the program, mapped to the optimizer's granularity
// and trimmed across chunk boundaries — exactly the preparation the
// buffered pipeline's trace.prune step performs up front. Chunk
// boundaries are irrelevant to the result.
func (f *Feed) Feed(ctx context.Context, chunk []int32) error {
	if f.err != nil {
		return f.err
	}
	if f.done {
		return fmt.Errorf("core: feed already finished")
	}
	f.buf = f.buf[:0]
	nb := int32(f.prog.NumBlocks())
	for _, s := range chunk {
		if s < 0 || s >= nb {
			f.err = fmt.Errorf("core: trace references block %d, program %s has %d", s, f.prog.Name, nb)
			return f.err
		}
		if f.o.Gran == GranFunction {
			s = int32(f.prog.Blocks[s].Fn)
		}
		if s == f.prev {
			continue
		}
		f.prev = s
		f.buf = append(f.buf, s)
	}
	if f.aff != nil {
		f.err = f.aff.Feed(f.buf)
	} else {
		f.err = f.trgF.Feed(f.buf)
	}
	return f.err
}

// Finish seals the stream, completes the analysis and emits the layout.
// The Report is byte-identical to the buffered OptimizeCtx over the
// concatenated chunks: same sequence, lengths, retention (exactly 1.0,
// which the FeedSupported gate guarantees pruning would report) and
// jump overhead.
func (f *Feed) Finish(ctx context.Context) (*layout.Layout, Report, error) {
	rep := Report{Optimizer: f.o.Name()}
	if f.err != nil {
		f.Abort()
		return nil, rep, f.err
	}
	if f.done {
		return nil, rep, fmt.Errorf("core: feed already finished")
	}
	f.done = true
	var seq []int32
	var err error
	if f.aff != nil {
		rep.TraceLen = f.aff.N()
		seq, err = f.o.affinitySequence(f.aff.Finish(ctx))
	} else {
		rep.TraceLen = f.trgF.N()
		g, gerr := f.trgF.Finish(ctx)
		seq, err = f.o.trgSequence(ctx, g, gerr)
	}
	if err != nil {
		return nil, rep, err
	}
	rep.Retention = 1.0
	return f.o.emitLayout(ctx, f.prog, seq, rep)
}

// Abort discards the stream and recycles kernel buffers. Call it
// instead of Finish when the job fails mid-upload.
func (f *Feed) Abort() {
	if f.done {
		return
	}
	f.done = true
	if f.aff != nil {
		f.aff.Abort()
	} else {
		f.trgF.Abort()
	}
}
