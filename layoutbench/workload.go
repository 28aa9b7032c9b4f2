package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"

	"codelayout/internal/core"
	"codelayout/internal/interp"
	"codelayout/internal/ir"
	"codelayout/internal/parallel"
	"codelayout/internal/progen"
	"codelayout/internal/trace"
)

// Op kinds, one per public endpoint the workloads drive.
const (
	kindSubmit   = "submit"   // POST /v1/jobs, cold or a cache hit
	kindGet      = "get"      // GET /v1/layouts/{digest}
	kindCorun    = "corun"    // POST /v1/corun
	kindSchedule = "schedule" // POST /v1/schedule
)

// Paths an optimize op takes through the server: feed-mode ingest while
// the upload arrives, or a fully decoded buffered trace.
const (
	pathFeed     = "feed"
	pathBuffered = "buffered"
)

// streamWindow is cmd/layoutd's default -stream-window; tiled inputs
// decode to more than this so the ring's backpressure runs.
const streamWindow = 8 << 20

// workloadSpec fixes everything about a workload except its seed and
// run length. The values here are the ones BENCHMARK.json states.
type workloadSpec struct {
	name  string
	nodes int
	// maxRate is about twice the workload's ops/s on the fastest 2-core
	// box seen; the op list holds maxRate*seconds ops.
	maxRate float64
	// tailPct is the latency_tail_ms percentile: the highest one with at
	// least ten samples beyond it at the workload's run length.
	tailPct float64
}

var workloads = []workloadSpec{
	{name: "analysis", nodes: 1, maxRate: 12, tailPct: 75},
	{name: "ingest", nodes: 3, maxRate: 100, tailPct: 95},
	{name: "warm-mix", nodes: 1, maxRate: 100, tailPct: 90},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// input is one generated profile as the nodes receive it: CLTR bytes.
// A tiled input repeats one profile; it streams its copies from the one
// encoded tile, so memory holds a single copy.
type input struct {
	prog  string
	seed  int64 // interpreter input seed
	tiles int   // copies of the profile; negative asks for enough to exceed the stream window
	// maxRefs truncates the profile and keeps tiled inputs small (tests
	// only; 0 keeps the whole profile).
	maxRefs int
	tile    []byte // CLTR encoding of one copy
	// For tiles > 1: header is the whole input's CLTR header, body the
	// tile's deltas, seam the delta from a copy's last symbol back to
	// its first, and firstDelta the length of the tile's first delta.
	header, seam []byte
	body         []byte
	firstDelta   int
	size         int64  // encoded bytes
	digest       string // SHA-256 of the encoding, the server's trace digest
	refs         int
}

// op is one timed (or warm-up, or corpus) operation.
type op struct {
	id    int
	kind  string
	prog  string
	opt   string
	prune int // 0: the optimizer's default bound
	path  string
	input int // index into plan.inputs (submit ops)
	node  int // index of the node the op is sent to
	// entries index plan.corpus for get, corun and schedule ops, and for
	// warm-mix resubmits.
	entries []int
}

// plan is a workload's complete, seeded set of inputs and ops.
type plan struct {
	spec   workloadSpec
	seed   int64
	progs  map[string]*ir.Program
	inputs []input
	corpus []op // warm-mix: ingested during set-up
	warmup []op // untimed, on inputs outside the timed set
	ops    []op
}

// makePlan generates a workload's inputs and op list from its seed. The
// same (spec, seed, seconds, maxRefs) always yields byte-identical
// inputs and the same ops.
func makePlan(ctx context.Context, spec workloadSpec, seed int64, seconds float64, maxRefs int) (*plan, error) {
	p := &plan{spec: spec, seed: seed, progs: make(map[string]*ir.Program)}
	for _, name := range append([]string{}, progen.MainSuiteNames...) {
		prog, err := core.LoadProgram(name)
		if err != nil {
			return nil, err
		}
		p.progs[name] = prog
	}
	rng := rand.New(rand.NewSource(seed))
	g := &generator{p: p, rng: rng, maxRefs: maxRefs}
	switch spec.name {
	case "analysis":
		g.analysis(int(math.Ceil(spec.maxRate * seconds)))
	case "ingest":
		g.ingest(int(math.Ceil(spec.maxRate * seconds)))
	case "warm-mix":
		g.warmMix(int(math.Ceil(spec.maxRate * seconds)))
	default:
		return nil, fmt.Errorf("unknown workload %q", spec.name)
	}
	if err := p.materialize(ctx); err != nil {
		return nil, err
	}
	return p, nil
}

// generator draws ops and input descriptors; materialize then profiles
// and encodes every input.
type generator struct {
	p       *plan
	rng     *rand.Rand
	maxRefs int
}

// newInput registers a fresh profile of prog under a new interpreter
// seed, so its trace (and digest) is distinct from every other input.
func (g *generator) newInput(prog string, tiles int) int {
	g.p.inputs = append(g.p.inputs, input{prog: prog, seed: g.rng.Int63(), tiles: tiles, maxRefs: g.maxRefs})
	return len(g.p.inputs) - 1
}

func (g *generator) submit(prog, opt string, prune, in int) op {
	path := pathFeed
	o, _ := core.OptimizerByName(opt)
	o.PruneTopN = prune
	if !o.FeedSupported(g.p.progs[prog]) {
		path = pathBuffered
	}
	return op{kind: kindSubmit, prog: prog, opt: opt, prune: prune, path: path, input: in}
}

func (g *generator) pick(names []string) string { return names[g.rng.Intn(len(names))] }

// trgPrograms are the programs where a bb-trg job stays under about 2 s;
// it takes 5-14 s on gcc, gobmk and gamess.
var trgPrograms = []string{"429.mcf", "458.sjeng"}

// analysis: cold bb-affinity over the main suite and bb-trg on the two
// fast programs; about one op in four is a bb-affinity job pruned below
// the program's block count, so it takes the buffered path. Ops are
// dealt from decks of fixed composition (the pruned programs rotate
// through the suite), so every seed runs nearly the same mix and only
// the order and the profiles differ.
func (g *generator) analysis(n int) {
	prune := func(prog string) int { return g.p.progs[prog].NumBlocks() * 3 / 4 }
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		g.p.warmup = append(g.p.warmup, g.submit("429.mcf", "bb-affinity", 0, g.newInput("429.mcf", 1)))
	}
	suite := progen.MainSuiteNames
	for k := 0; len(g.p.ops) < n; k++ {
		var deck []op
		for _, prog := range suite {
			deck = append(deck, g.submit(prog, "bb-affinity", 0, g.newInput(prog, 1)))
		}
		for _, prog := range trgPrograms {
			deck = append(deck, g.submit(prog, "bb-trg", 0, g.newInput(prog, 1)))
		}
		for i := 0; i < 3; i++ {
			prog := suite[(3*k+i)%len(suite)]
			deck = append(deck, g.submit(prog, "bb-affinity", prune(prog), g.newInput(prog, 1)))
		}
		g.deal(deck)
	}
	g.p.ops = g.p.ops[:n]
}

// deal shuffles a deck onto the op list.
func (g *generator) deal(deck []op) {
	g.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	g.p.ops = append(g.p.ops, deck...)
}

// ingestOptimizers are the fast function-level optimizers: two streamed,
// two buffered.
var ingestOptimizers = []string{"func-affinity", "func-trg", "func-callgraph", "func-cmg"}

// ingest: each main-suite profile is submitted once per fast optimizer,
// plus about one op in ten on a tiled profile larger than the stream
// window. Every op goes to a seeded node.
func (g *generator) ingest(n int) {
	nodes := g.p.spec.nodes
	for i := 0; i < nodes; i++ {
		o := g.submit("429.mcf", "func-trg", 0, g.newInput("429.mcf", 1))
		o.node = i
		g.p.warmup = append(g.p.warmup, o)
	}
	suite := progen.MainSuiteNames
	for k := 0; len(g.p.ops) < n; k++ {
		var deck []op
		for _, prog := range suite {
			in := g.newInput(prog, 1)
			for _, opt := range ingestOptimizers {
				deck = append(deck, g.submit(prog, opt, 0, in))
			}
		}
		for i := 0; i < 3; i++ {
			prog := suite[(3*k+i)%len(suite)]
			opt := ingestOptimizers[(3*k+i)%2]
			deck = append(deck, g.submit(prog, opt, 0, g.newInput(prog, -1)))
		}
		for i := range deck {
			deck[i].node = g.rng.Intn(nodes)
		}
		g.deal(deck)
	}
	g.p.ops = g.p.ops[:n]
}

// Warm-mix shape: the corpus is larger than the server's 32 in-memory
// trace entries. Timed ops are dealt from decks of 20: three layout
// reads, two resubmits of buffered entries, ten of func-affinity entries
// and one of a bb-affinity entry (whose feed reruns the kernel), three
// co-runs and one schedule of three digests. Sorted by latency the kinds
// fall in blocks, and the deck puts the median deep inside the
// func-affinity resubmits and the p90 tail among the co-runs, never on a
// boundary between blocks, where it would jump between runs.
const (
	deckGets      = 3
	deckBuffered  = 2
	deckStreamed  = 10
	deckCoruns    = 3
	deckSchedules = 1
	scheduleSize  = 3
)

// warmMix: set-up ingests the corpus; the n timed ops only ever repeat
// corpus inputs or analyze them. Co-runs take the corpus's pairs in a
// seeded order, so none repeats another and the pair cache answers
// only pairs a schedule already computed.
func (g *generator) warmMix(n int) {
	byOpt := map[string][]int{}
	add := func(prog, opt string) {
		byOpt[opt] = append(byOpt[opt], len(g.p.corpus))
		g.p.corpus = append(g.p.corpus, g.submit(prog, opt, 0, g.newInput(prog, 1)))
	}
	for _, prog := range progen.MainSuiteNames {
		for _, opt := range ingestOptimizers {
			add(prog, opt)
		}
	}
	for _, prog := range []string{"429.mcf", "458.sjeng", "429.mcf", "458.sjeng"} {
		add(prog, "bb-affinity")
	}
	pick := func(opts ...string) int {
		var es []int
		for _, o := range opts {
			es = append(es, byOpt[o]...)
		}
		return es[g.rng.Intn(len(es))]
	}
	var pairs [][]int
	for a := range g.p.corpus {
		for b := a + 1; b < len(g.p.corpus); b++ {
			pairs = append(pairs, []int{a, b})
		}
	}
	g.rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	// Warm-up resubmits one corpus entry per client: a hit, outside the
	// timed window.
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		g.p.warmup = append(g.p.warmup, g.resubmit(pick("func-affinity")))
	}
	for k := 0; len(g.p.ops) < n; {
		deck := []op{g.resubmit(pick("bb-affinity"))}
		for i := 0; i < deckBuffered; i++ {
			deck = append(deck, g.resubmit(pick("func-callgraph", "func-cmg")))
		}
		for i := 0; i < deckStreamed; i++ {
			deck = append(deck, g.resubmit(pick("func-affinity")))
		}
		for i := 0; i < deckGets; i++ {
			deck = append(deck, op{kind: kindGet, entries: []int{g.rng.Intn(len(g.p.corpus))}})
		}
		for i := 0; i < deckCoruns; i++ {
			deck = append(deck, op{kind: kindCorun, entries: pairs[k%len(pairs)]})
			k++
		}
		for i := 0; i < deckSchedules; i++ {
			deck = append(deck, op{kind: kindSchedule, entries: g.distinct(scheduleSize)})
		}
		g.deal(deck)
	}
	g.p.ops = g.p.ops[:n]
}

// resubmit repeats corpus entry e's submission.
func (g *generator) resubmit(e int) op {
	o := g.p.corpus[e]
	o.entries = []int{e}
	return o
}

// distinct draws k different corpus entries.
func (g *generator) distinct(k int) []int {
	return g.rng.Perm(len(g.p.corpus))[:k]
}

// materialize profiles and encodes every input, in parallel; the
// result depends only on each input's own descriptor. It then numbers
// the ops.
func (p *plan) materialize(ctx context.Context) error {
	err := parallel.ForEachCtx(ctx, 0, len(p.inputs), func(ctx context.Context, i int) error {
		return p.inputs[i].build(p.progs[p.inputs[i].prog])
	})
	if err != nil {
		return err
	}
	for i := range p.warmup {
		p.warmup[i].id = -1 - i
	}
	for i := range p.ops {
		p.ops[i].id = i
	}
	return nil
}

// build runs the profile and encodes it. Tiled copies are laid out as
// the CLTR container does: one header with the total count, then every
// symbol delta-encoded from its predecessor (trace/file.go).
func (in *input) build(prog *ir.Program) error {
	var syms []int32
	if in.maxRefs > 0 {
		// Tests: the first maxRefs references of the same profile, and
		// small tiled inputs that no longer exceed the stream window.
		res, err := interp.Run(prog, interp.Options{Seed: in.seed, MaxSteps: in.maxRefs})
		if err != nil {
			return err
		}
		syms = res.Blocks.Syms
		if in.tiles < 0 {
			in.tiles = 4
		}
	} else {
		prof, err := core.ProfileProgram(prog, in.seed)
		if err != nil {
			return err
		}
		syms = prof.Blocks.Syms
	}
	if in.tiles < 0 {
		in.tiles = overWindowTiles(len(syms))
	}
	var buf bytes.Buffer
	if _, err := trace.New(syms).WriteTo(&buf); err != nil {
		return err
	}
	in.tile = buf.Bytes()
	in.refs = len(syms) * in.tiles
	if in.tiles > 1 {
		var v [binary.MaxVarintLen64]byte
		hdr := len("CLTR") + 1 + binary.PutUvarint(v[:], uint64(len(syms)))
		in.header = append(append([]byte{}, in.tile[:len("CLTR")+1]...), v[:binary.PutUvarint(v[:], uint64(in.refs))]...)
		in.body = in.tile[hdr:]
		in.firstDelta = binary.PutVarint(v[:], int64(syms[0]))
		in.seam = append([]byte{}, v[:binary.PutVarint(v[:], int64(syms[0])-int64(syms[len(syms)-1]))]...)
	}
	h := sha256.New()
	n, err := io.Copy(h, in.reader())
	if err != nil {
		return err
	}
	in.size = n
	in.digest = hex.EncodeToString(h.Sum(nil))
	return nil
}

// overWindowTiles is how many copies of a profile of refs references
// decode to a quarter more than the stream window, four bytes each.
func overWindowTiles(refs int) int { return streamWindow*5/4/(4*refs) + 1 }

// reader streams the input's encoding.
func (in *input) reader() io.Reader {
	if in.tiles <= 1 {
		return bytes.NewReader(in.tile)
	}
	rs := []io.Reader{bytes.NewReader(in.header), bytes.NewReader(in.body)}
	for i := 1; i < in.tiles; i++ {
		rs = append(rs, bytes.NewReader(in.seam), bytes.NewReader(in.body[in.firstDelta:]))
	}
	return io.MultiReader(rs...)
}

// bytes materializes the input's encoding.
func (in *input) bytes() []byte {
	if in.tiles <= 1 {
		return in.tile
	}
	data, _ := io.ReadAll(in.reader()) // reads from memory cannot fail
	return data
}

// decode returns the input's trace as the server decodes it.
func (in *input) decode() (*trace.Trace, error) {
	return trace.ReadFrom(in.reader())
}

// overWindow reports whether the input decodes to more than the stream
// window (four bytes per reference).
func (in *input) overWindow() bool { return int64(in.refs)*4 > streamWindow }

// subject is the op that defines an optimize result's input and
// parameters: the op itself for a cold submit, the corpus entry for a
// warm-mix resubmit or layout read.
func (p *plan) subject(o *op) *op {
	if len(o.entries) > 0 && (o.kind == kindSubmit || o.kind == kindGet) {
		return &p.corpus[o.entries[0]]
	}
	return o
}
