package core

import (
	"reflect"
	"strings"
	"testing"

	"codelayout/internal/cachesim"
	"codelayout/internal/layout"
	"codelayout/internal/progen"
)

func profileNamed(t testing.TB, name string) *Profile {
	t.Helper()
	p, err := LoadProgram(name)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ProfileProgram(p, TrainSeed)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func TestOptimizerNames(t *testing.T) {
	want := map[string]bool{
		"func-affinity": true, "bb-affinity": true,
		"func-trg": true, "bb-trg": true,
	}
	for _, o := range AllOptimizers() {
		if !want[o.Name()] {
			t.Errorf("unexpected optimizer name %q", o.Name())
		}
		delete(want, o.Name())
	}
	if len(want) != 0 {
		t.Errorf("missing optimizers: %v", want)
	}
}

func TestAllOptimizersProduceValidLayouts(t *testing.T) {
	prof := profileNamed(t, "458.sjeng")
	for _, o := range AllOptimizers() {
		l, rep, err := o.Optimize(prof)
		if err != nil {
			t.Errorf("%s: %v", o.Name(), err)
			continue
		}
		if err := l.Validate(); err != nil {
			t.Errorf("%s: invalid layout: %v", o.Name(), err)
		}
		if rep.SeqLen == 0 {
			t.Errorf("%s: empty model sequence", o.Name())
		}
		if rep.TraceLen == 0 || rep.Retention <= 0 || rep.Retention > 1 {
			t.Errorf("%s: bad report %+v", o.Name(), rep)
		}
		wantStubs := o.Gran == GranBasicBlock
		if l.HasStubs() != wantStubs {
			t.Errorf("%s: HasStubs = %v, want %v", o.Name(), l.HasStubs(), wantStubs)
		}
	}
}

// evalMiss replays the evaluation-input trace through a layout and
// returns the simulated solo I-cache miss ratio.
func evalMiss(t testing.TB, prof *Profile, l *layout.Layout) float64 {
	t.Helper()
	evalProf, err := ProfileProgram(prof.Prog, EvalSeed)
	if err != nil {
		t.Fatal(err)
	}
	res := cachesim.SimulateSolo(cachesim.L1IDefault,
		layout.NewReplayer(l, evalProf.Blocks, cachesim.L1IDefault.LineBytes, false))
	return res.Stats.MissRatio()
}

func TestBBAffinityReducesMisses(t *testing.T) {
	prof := profileNamed(t, "445.gobmk")
	base := evalMiss(t, prof, layout.Original(prof.Prog))
	l, _, err := BBAffinity().Optimize(prof)
	if err != nil {
		t.Fatal(err)
	}
	opt := evalMiss(t, prof, l)
	t.Logf("gobmk solo miss: base=%.3f%% bb-affinity=%.3f%%", 100*base, 100*opt)
	if opt >= base*0.8 {
		t.Errorf("bb-affinity reduced misses only from %v to %v (<20%%)", base, opt)
	}
}

func TestFuncAffinityReducesMisses(t *testing.T) {
	prof := profileNamed(t, "445.gobmk")
	base := evalMiss(t, prof, layout.Original(prof.Prog))
	l, _, err := FuncAffinity().Optimize(prof)
	if err != nil {
		t.Fatal(err)
	}
	opt := evalMiss(t, prof, l)
	t.Logf("gobmk solo miss: base=%.3f%% func-affinity=%.3f%%", 100*base, 100*opt)
	if opt >= base {
		t.Errorf("func-affinity did not reduce misses: %v -> %v", base, opt)
	}
}

func TestOptimizeRejectsNilProfile(t *testing.T) {
	if _, _, err := BBAffinity().Optimize(nil); err == nil {
		t.Error("nil profile accepted")
	}
}

func TestProfileUsesSeed(t *testing.T) {
	p, err := LoadProgram("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	a, err := ProfileProgram(p, TrainSeed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ProfileProgram(p, EvalSeed)
	if err != nil {
		t.Fatal(err)
	}
	if a.Blocks.Len() == 0 || b.Blocks.Len() == 0 {
		t.Fatal("empty profiles")
	}
	same := a.Blocks.Len() == b.Blocks.Len()
	if same {
		for i := range a.Blocks.Syms {
			if a.Blocks.Syms[i] != b.Blocks.Syms[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("train and eval inputs produced identical traces")
	}
}

func TestLoadProgramUnknown(t *testing.T) {
	if _, err := LoadProgram("no.such"); err == nil {
		t.Error("unknown program accepted")
	}
}

func TestPruningBoundsAlphabet(t *testing.T) {
	prof := profileNamed(t, "458.sjeng")
	o := BBAffinity()
	o.PruneTopN = 50
	l, rep, err := o.Optimize(prof)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SeqLen > 50 {
		t.Errorf("SeqLen = %d with PruneTopN=50", rep.SeqLen)
	}
	if rep.Retention >= 1 {
		t.Errorf("Retention = %v, want < 1 with tight pruning", rep.Retention)
	}
	// Layout still covers the whole program (unprofiled blocks appended).
	if err := l.Validate(); err != nil {
		t.Errorf("pruned layout invalid: %v", err)
	}
}

// TestOptimizerByName: the registry layoutd resolves request names
// through. Every advertised name must round-trip to an optimizer whose
// Name() matches, and unknown names must error cleanly (no panic, a
// message naming the request).
func TestOptimizerByName(t *testing.T) {
	for _, name := range OptimizerNames() {
		o, err := OptimizerByName(name)
		if err != nil {
			t.Errorf("OptimizerByName(%q): %v", name, err)
			continue
		}
		if o.Name() != name {
			t.Errorf("OptimizerByName(%q).Name() = %q", name, o.Name())
		}
	}
	if _, err := OptimizerByName("no-such-optimizer"); err == nil {
		t.Error("unknown optimizer accepted")
	} else if !strings.Contains(err.Error(), "no-such-optimizer") {
		t.Errorf("error %q does not name the unknown optimizer", err)
	}
	if _, err := OptimizerByName(""); err == nil {
		t.Error("empty optimizer name accepted")
	}
}

// TestOptimizerNamesUniqueStable: names are unique (the registry is a
// bijection, so content-addressed cache keys cannot collide across
// optimizers) and stable across calls (clients may hardcode them).
// TestLayoutFromSequenceRoundTrip: rebuilding a layout from the cached
// Report.Sequence must reproduce the optimizer's layout exactly — the
// serving layer depends on this to replay co-runs from stored results,
// and to take the optimized layout's default-geometry solo miss ratio
// from the stored MissAfter instead of replaying it. So every field
// the replay reads must match: addresses, order, sizes (appended
// jumps), entry stubs and the total image size.
func TestLayoutFromSequenceRoundTrip(t *testing.T) {
	prof := profileNamed(t, "458.sjeng")
	for _, o := range AllWithBaselines() {
		l, rep, err := o.Optimize(prof)
		if err != nil {
			t.Fatalf("%s: %v", o.Name(), err)
		}
		rebuilt, err := LayoutFromSequence(prof.Prog, o.Name(), rep.Sequence)
		if err != nil {
			t.Fatalf("%s: rebuild: %v", o.Name(), err)
		}
		if !reflect.DeepEqual(l.Addr, rebuilt.Addr) || !reflect.DeepEqual(l.Order(), rebuilt.Order()) {
			t.Errorf("%s: rebuilt layout diverges from original", o.Name())
		}
		if !reflect.DeepEqual(l.Size, rebuilt.Size) || !reflect.DeepEqual(l.StubAddr, rebuilt.StubAddr) ||
			l.TotalBytes != rebuilt.TotalBytes {
			t.Errorf("%s: rebuilt layout's sizes, stubs or total bytes diverge from original", o.Name())
		}
	}
}

func TestLayoutFromSequenceErrors(t *testing.T) {
	prof := profileNamed(t, "458.sjeng")
	if _, err := LayoutFromSequence(nil, "func-affinity", nil); err == nil {
		t.Error("nil program should be rejected")
	}
	if _, err := LayoutFromSequence(prof.Prog, "no-such-optimizer", nil); err == nil {
		t.Error("unknown optimizer should be rejected")
	}
}

func TestOptimizerNamesUniqueStable(t *testing.T) {
	names := OptimizerNames()
	if len(names) != len(AllWithBaselines()) {
		t.Fatalf("got %d names for %d optimizers", len(names), len(AllWithBaselines()))
	}
	seen := make(map[string]bool)
	for _, n := range names {
		if n == "" {
			t.Error("empty optimizer name")
		}
		if seen[n] {
			t.Errorf("duplicate optimizer name %q", n)
		}
		seen[n] = true
	}
	if !reflect.DeepEqual(names, OptimizerNames()) {
		t.Error("OptimizerNames is not stable across calls")
	}
	// The four paper optimizers stay first, in the paper's order.
	want := []string{"func-affinity", "bb-affinity", "func-trg", "bb-trg"}
	if !reflect.DeepEqual(names[:4], want) {
		t.Errorf("paper optimizers = %v, want %v", names[:4], want)
	}
}

var _ = progen.MainSuiteNames // keep the import for documentation parity
