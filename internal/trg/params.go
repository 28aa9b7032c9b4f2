package trg

import "codelayout/internal/trace"

// Params derives the reduction's slot count and the construction's
// examination window from the cache geometry, following §II-C:
//
//   - the paper assumes one uniform size S for all code blocks (its
//     compiler works on IR, not binary code, so actual sizes are
//     unknown);
//   - per Gloy & Smith's recommendation, the cache size C used by the
//     model is twice the actual cache size;
//   - a code block occupies ceil(S/(A·B)) cache sets out of C/(A·B), so
//     there are (C/(A·B)) / ceil(S/(A·B)) slots to place code blocks;
//   - the constant 2C also bounds the footprint window examined for
//     co-occurrences, i.e. 2C/S code blocks.
type Params struct {
	// CacheBytes is the actual instruction cache size (e.g. 32 KB).
	CacheBytes int
	// Assoc is the cache associativity A.
	Assoc int
	// LineBytes is the cache block size B.
	LineBytes int
	// BlockBytes is the assumed uniform code block size S.
	BlockBytes int
	// WindowScale multiplies the actual cache size to form the model's
	// window; 0 means the recommended factor 2.
	WindowScale int
	// Workers bounds the construction's concurrency: 0 means every
	// available core, 1 pins the serial reference path. It is an
	// execution knob, not a model parameter — the graph is identical
	// for every setting.
	Workers int
}

// DefaultParams returns the evaluation configuration of the paper: a
// 32 KB 4-way cache with 64-byte lines and the given uniform code-block
// size.
func DefaultParams(blockBytes int) Params {
	return Params{CacheBytes: 32 << 10, Assoc: 4, LineBytes: 64, BlockBytes: blockBytes}
}

func (p Params) scaledCache() int {
	scale := p.WindowScale
	if scale <= 0 {
		scale = 2
	}
	return scale * p.CacheBytes
}

// Slots returns K, the number of code slots for the reduction.
func (p Params) Slots() int {
	c := p.scaledCache()
	setBytes := p.Assoc * p.LineBytes
	sets := c / setBytes
	blockSets := (p.BlockBytes + setBytes - 1) / setBytes
	if blockSets < 1 {
		blockSets = 1
	}
	k := sets / blockSets
	if k < 1 {
		k = 1
	}
	return k
}

// WindowBlocks returns the construction's examination window measured in
// code blocks: the footprint 2C divided by the uniform block size.
func (p Params) WindowBlocks() int {
	w := p.scaledCache() / p.BlockBytes
	if w < 2 {
		w = 2
	}
	return w
}

// Sequence runs the full §II-C pipeline: build the TRG of the trace with
// the parameter-derived window, reduce it with the parameter-derived
// slot count, and return the optimized code sequence.
func Sequence(t *trace.Trace, p Params) []int32 {
	return Reduce(BuildWorkers(t, p.WindowBlocks(), p.Workers), p.Slots())
}
