package vitality

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"g10sim/internal/dnn"
	"g10sim/internal/models"
	"g10sim/internal/profile"
	"g10sim/internal/units"
)

// chain builds K0(uses A) -> K1 -> K2(uses A) with unit durations, where A
// is inactive during K1.
func chain(t *testing.T) (*dnn.Graph, *profile.Trace) {
	t.Helper()
	b := dnn.NewBuilder("chain", 1)
	a := b.Tensor("A", dnn.Intermediate, 8*units.MB)
	x := b.Tensor("X", dnn.Intermediate, units.MB)
	y := b.Tensor("Y", dnn.Intermediate, units.MB)
	w := b.Tensor("W", dnn.Global, 2*units.MB)
	b.Kernel("k0", dnn.Forward, 1, []*dnn.Tensor{w}, []*dnn.Tensor{a, x})
	b.Kernel("k1", dnn.Forward, 1, []*dnn.Tensor{x}, []*dnn.Tensor{y})
	b.Kernel("k2", dnn.Backward, 1, []*dnn.Tensor{a, y, w}, []*dnn.Tensor{y})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr := &profile.Trace{Model: "chain", Batch: 1,
		Durations: []units.Duration{100 * units.Microsecond, 200 * units.Microsecond, 300 * units.Microsecond}}
	return g, tr
}

func TestAnalyzeLifetimes(t *testing.T) {
	g, tr := chain(t)
	a := MustAnalyze(g, tr)

	find := func(name string) *TensorInfo {
		for i := range a.Infos {
			if a.Infos[i].Tensor.Name == name {
				return &a.Infos[i]
			}
		}
		t.Fatalf("tensor %q missing", name)
		return nil
	}
	A := find("A")
	if A.BornAt != 0 || A.DeadAt != 3 {
		t.Errorf("A lifetime = [%d,%d), want [0,3)", A.BornAt, A.DeadAt)
	}
	X := find("X")
	if X.BornAt != 0 || X.DeadAt != 2 {
		t.Errorf("X lifetime = [%d,%d), want [0,2)", X.BornAt, X.DeadAt)
	}
	W := find("W")
	if W.BornAt != -1 || W.DeadAt != 4 {
		t.Errorf("W lifetime = [%d,%d), want [-1,4)", W.BornAt, W.DeadAt)
	}
	if !W.AliveAt(0) || !W.AliveAt(2) {
		t.Error("global tensor not alive")
	}
	if A.AliveAt(3) {
		t.Error("A alive past death")
	}
}

func TestAnalyzePeriods(t *testing.T) {
	g, tr := chain(t)
	a := MustAnalyze(g, tr)

	var aPeriod, wWrap *Period
	for i := range a.Periods {
		p := &a.Periods[i]
		switch {
		case p.Tensor.Name == "A":
			aPeriod = p
		case p.Tensor.Name == "W" && p.Wraps:
			wWrap = p
		}
	}
	if aPeriod == nil {
		t.Fatal("A has no inactive period")
	}
	// A inactive from end of k0 (100µs) to start of k2 (300µs).
	if aPeriod.Start != 100*units.Microsecond || aPeriod.End != 300*units.Microsecond {
		t.Errorf("A period = [%v,%v]", aPeriod.Start, aPeriod.End)
	}
	if aPeriod.Duration() != 200*units.Microsecond {
		t.Errorf("A period duration = %v", aPeriod.Duration())
	}
	if aPeriod.AfterKernel != 0 || aPeriod.NextUse != 2 {
		t.Errorf("A period kernels = (%d,%d)", aPeriod.AfterKernel, aPeriod.NextUse)
	}

	// W is used at k0 (first kernel) and k2 (last kernel): its wrap-around
	// gap from end-of-k2 to next-iteration k0 has zero length and must be
	// omitted. Its only period is the in-iteration one [100µs, 300µs].
	if wWrap != nil {
		t.Errorf("W has a zero-length wrap period [%v, %v]", wWrap.Start, wWrap.End)
	}
	var wMid *Period
	for i := range a.Periods {
		if p := &a.Periods[i]; p.Tensor.Name == "W" && !p.Wraps {
			wMid = p
		}
	}
	if wMid == nil || wMid.Start != 100*units.Microsecond || wMid.End != 300*units.Microsecond {
		t.Errorf("W in-iteration period = %+v, want [100µs,300µs]", wMid)
	}
}

func TestWrapPeriodForLateFirstUse(t *testing.T) {
	// W used only by the middle kernel: wrap period spans end-of-k1 to
	// start-of-k1 next iteration.
	b := dnn.NewBuilder("wrap", 1)
	x := b.Tensor("X", dnn.Intermediate, units.MB)
	w := b.Tensor("W", dnn.Global, units.MB)
	b.Kernel("k0", dnn.Forward, 1, []*dnn.Tensor{x}, []*dnn.Tensor{x})
	b.Kernel("k1", dnn.Forward, 1, []*dnn.Tensor{w, x}, []*dnn.Tensor{x})
	b.Kernel("k2", dnn.Forward, 1, []*dnn.Tensor{x}, []*dnn.Tensor{x})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	us := units.Microsecond
	tr := &profile.Trace{Durations: []units.Duration{10 * us, 20 * us, 30 * us}}
	a := MustAnalyze(g, tr)
	var wrap *Period
	for i := range a.Periods {
		if a.Periods[i].Wraps {
			wrap = &a.Periods[i]
		}
	}
	if wrap == nil {
		t.Fatal("no wrap period")
	}
	// End of k1 = 30µs; next-iteration k1 start = 60 + 10 = 70µs.
	if wrap.Start != 30*us || wrap.End != 70*us {
		t.Errorf("wrap = [%v,%v], want [30µs,70µs]", wrap.Start, wrap.End)
	}
	if wrap.Duration() != 40*us {
		t.Errorf("wrap duration = %v", wrap.Duration())
	}
}

func TestMemoryCurves(t *testing.T) {
	g, tr := chain(t)
	a := MustAnalyze(g, tr)
	// Active: k0 = W+A+X = 11MB; k1 = X+Y = 2MB; k2 = A+Y+W = 11MB.
	want := []units.Bytes{11 * units.MB, 2 * units.MB, 11 * units.MB}
	for i, w := range want {
		if a.ActiveBytes[i] != w {
			t.Errorf("ActiveBytes[%d] = %v, want %v", i, a.ActiveBytes[i], w)
		}
	}
	// Alive: k0 = all born at 0 (A,X,Y? Y born at k1)... A+X+W = 11MB;
	// k1 = A+X+Y+W = 12MB; k2 = A+Y+W (X dead) = 11MB.
	wantAlive := []units.Bytes{11 * units.MB, 12 * units.MB, 11 * units.MB}
	for i, w := range wantAlive {
		if a.AliveBytes[i] != w {
			t.Errorf("AliveBytes[%d] = %v, want %v", i, a.AliveBytes[i], w)
		}
	}
	if a.PeakAlive() != 12*units.MB {
		t.Errorf("PeakAlive = %v", a.PeakAlive())
	}
	if a.PeakActive() != 11*units.MB {
		t.Errorf("PeakActive = %v", a.PeakActive())
	}
}

func TestAnalyzeRejectsMismatchedTrace(t *testing.T) {
	g, _ := chain(t)
	tr := &profile.Trace{Durations: []units.Duration{1}}
	if _, err := Analyze(g, tr); err == nil {
		t.Error("expected mismatch error")
	}
}

func TestKernelSpan(t *testing.T) {
	g, tr := chain(t)
	a := MustAnalyze(g, tr)
	s, e := a.KernelSpan(1)
	if s != 100*units.Microsecond || e != 300*units.Microsecond {
		t.Errorf("span(1) = [%v,%v]", s, e)
	}
}

// Invariants on real model graphs.
func TestInvariantsOnModels(t *testing.T) {
	for _, g := range []*dnn.Graph{models.TinyMLP(8), models.TinyCNN(8), models.TinyTransformer(4)} {
		tr := profile.Profile(g, profile.A100(1))
		a := MustAnalyze(g, tr)
		n := len(g.Kernels)

		// Periods lie within lifetimes and do not overlap per tensor.
		lastEnd := map[int]units.Time{}
		for i := range a.Periods {
			p := &a.Periods[i]
			info := &a.Infos[p.Tensor.ID]
			if p.Duration() <= 0 {
				t.Fatalf("%s: zero/negative period for %s", g.Name, p.Tensor.Name)
			}
			if !p.Wraps {
				if p.AfterKernel < info.BornAt || p.NextUse >= info.DeadAt {
					t.Fatalf("%s: period outside lifetime for %s", g.Name, p.Tensor.Name)
				}
				if p.Start < lastEnd[p.Tensor.ID] {
					t.Fatalf("%s: overlapping periods for %s", g.Name, p.Tensor.Name)
				}
				lastEnd[p.Tensor.ID] = p.End
			}
		}

		// Active ⊆ alive at every kernel.
		for ki := 0; ki < n; ki++ {
			if a.ActiveBytes[ki] > a.AliveBytes[ki] {
				t.Fatalf("%s: active %v > alive %v at kernel %d", g.Name, a.ActiveBytes[ki], a.AliveBytes[ki], ki)
			}
		}

		// Alive curve matches a direct recomputation.
		for ki := 0; ki < n; ki += 7 {
			var direct units.Bytes
			for id := range a.Infos {
				if a.Infos[id].AliveAt(ki) {
					direct += a.Infos[id].Tensor.Size
				}
			}
			if direct != a.AliveBytes[ki] {
				t.Fatalf("%s: AliveBytes[%d] = %v, direct = %v", g.Name, ki, a.AliveBytes[ki], direct)
			}
		}
	}
}

// TestPaperObservationO1: active tensors are a small fraction of the total
// (paper: <10% of total requirement for most models).
func TestPaperObservationO1(t *testing.T) {
	g := models.TinyCNN(64)
	tr := profile.Profile(g, profile.A100(1))
	a := MustAnalyze(g, tr)
	ratio := float64(a.PeakActive()) / float64(a.PeakAlive())
	if ratio > 0.5 {
		t.Errorf("peak active / peak alive = %.2f; expected well below 1", ratio)
	}
}

// TestPaperObservationO2: most tensors are used only a few times, so
// inactive periods exist in quantity.
func TestPaperObservationO2(t *testing.T) {
	g := models.TinyCNN(16)
	tr := profile.Profile(g, profile.A100(1))
	a := MustAnalyze(g, tr)
	if len(a.Periods) < len(g.Tensors)/4 {
		t.Errorf("only %d periods for %d tensors", len(a.Periods), len(g.Tensors))
	}
	if h := a.HideablePeriods(20 * units.Microsecond); h <= 0 {
		t.Errorf("HideablePeriods = %v, want > 0", h)
	}
}

// Property: on random linear chains, every intermediate tensor consumed
// j-i > 1 kernels after production has exactly one period of the gap length.
func TestPeriodsOnRandomChains(t *testing.T) {
	f := func(gapsRaw []uint8) bool {
		if len(gapsRaw) == 0 || len(gapsRaw) > 12 {
			return true
		}
		b := dnn.NewBuilder("prop", 1)
		cur := b.Tensor("t", dnn.Intermediate, units.MB)
		prev := cur
		k := 0
		var durs []units.Duration
		// Build a chain where tensor i is re-read gaps[i] kernels later.
		for _, graw := range gapsRaw {
			gap := int(graw%3) + 1
			for j := 0; j < gap; j++ {
				next := b.Tensor("t", dnn.Intermediate, units.MB)
				b.Kernel("op", dnn.Forward, 1, []*dnn.Tensor{prev}, []*dnn.Tensor{next})
				prev = next
				durs = append(durs, units.Duration(k+1)*units.Microsecond)
				k++
			}
		}
		g, err := b.Build()
		if err != nil {
			return true
		}
		tr := &profile.Trace{Durations: durs}
		a, err := Analyze(g, tr)
		if err != nil {
			return false
		}
		// Every period must be positive and start/end aligned to kernel
		// boundaries.
		for i := range a.Periods {
			p := &a.Periods[i]
			if p.Duration() <= 0 {
				return false
			}
			if p.Start != a.Starts[p.AfterKernel+1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMemoBuildsOncePerKey(t *testing.T) {
	g, tr := chain(t)
	a := MustAnalyze(g, tr)
	type key struct{ n int }
	var builds atomic.Int32
	build := func() any { builds.Add(1); return new(int) }
	const callers = 16
	got := make([]any, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = a.Memo(key{1}, build)
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different value", i)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds for one key, want 1", n)
	}
	if a.Memo(key{2}, build) == got[0] || builds.Load() != 2 {
		t.Error("a second key reused the first key's value")
	}
	if MustAnalyze(g, tr).Memo(key{1}, build) == got[0] {
		t.Error("a second analysis reused the first one's value")
	}
}
