package policy

import (
	"testing"

	"g10sim/internal/adapt"
	"g10sim/internal/gpu"
	"g10sim/internal/models"
	"g10sim/internal/planner"
	"g10sim/internal/profile"
	"g10sim/internal/ssd"
	"g10sim/internal/units"
	"g10sim/internal/vitality"
)

func testCfg(gpuCap, hostCap units.Bytes) gpu.Config {
	cfg := gpu.Default()
	cfg.GPUCapacity = gpuCap
	cfg.HostCapacity = hostCap
	sc := ssd.ZNAND()
	sc.Capacity = 8 * units.GB
	sc.PageSize = 64 * units.KB
	cfg.SSD = sc
	cfg.TranslationGranularity = 64 * units.KB
	return cfg
}

func analyze(t *testing.T, batch int, timeScale float64) *vitality.Analysis {
	t.Helper()
	g := models.TinyCNN(batch)
	tr := profile.Profile(g, profile.A100(timeScale))
	a, err := vitality.Analyze(g, tr)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func runOne(t *testing.T, a *vitality.Analysis, pol gpu.Policy, cfg gpu.Config) gpu.Result {
	t.Helper()
	res, err := gpu.Run(gpu.RunParams{Analysis: a, Policy: pol, Config: cfg})
	if err != nil {
		t.Fatalf("%s: %v", pol.Name(), err)
	}
	return res
}

// pressured returns an analysis plus a config with 60% of peak memory.
func pressured(t *testing.T) (*vitality.Analysis, gpu.Config) {
	t.Helper()
	a := analyze(t, 128, 200)
	cap := units.Bytes(float64(a.PeakAlive()) * 0.6)
	if cap < a.PeakActive() {
		cap = a.PeakActive() + units.MB
	}
	return a, testCfg(cap, 2*units.GB)
}

func TestPolicyOrderingMatchesPaper(t *testing.T) {
	a, cfg := pressured(t)

	ideal := runOne(t, a, Ideal(), IdealConfig(cfg))
	base := runOne(t, a, BaseUVM(), cfg)
	deep := runOne(t, a, DeepUMPlus(0), cfg)
	flash := runOne(t, a, FlashNeuron(), cfg)
	g10 := runOne(t, a, G10Full(planner.Config{}), cfg)

	for _, r := range []gpu.Result{ideal, base, deep, g10} {
		if r.Failed {
			t.Fatalf("%s failed: %s", r.Policy, r.FailReason)
		}
	}
	t.Logf("ideal=%v base=%v(%.2f) deepum=%v(%.2f) flash=%v(%.2f,fail=%v) g10=%v(%.2f)",
		ideal.IterationTime,
		base.IterationTime, base.NormalizedPerf(),
		deep.IterationTime, deep.NormalizedPerf(),
		flash.IterationTime, flash.NormalizedPerf(), flash.Failed,
		g10.IterationTime, g10.NormalizedPerf())

	// The paper's ordering: Ideal >= G10 > DeepUM+ > Base UVM.
	if g10.IterationTime < ideal.IterationTime {
		t.Error("G10 beat ideal")
	}
	if !(g10.IterationTime <= deep.IterationTime) {
		t.Errorf("G10 (%v) slower than DeepUM+ (%v)", g10.IterationTime, deep.IterationTime)
	}
	if !(deep.IterationTime <= base.IterationTime) {
		t.Errorf("DeepUM+ (%v) slower than Base UVM (%v)", deep.IterationTime, base.IterationTime)
	}
	if !flash.Failed && float64(flash.IterationTime) < 0.98*float64(g10.IterationTime) {
		t.Errorf("FlashNeuron (%v) beat G10 (%v) by more than 2%%", flash.IterationTime, g10.IterationTime)
	}
}

func TestG10VariantsOrdering(t *testing.T) {
	a, cfg := pressured(t)
	gds := runOne(t, a, G10GDS(planner.Config{}), cfg)
	host := runOne(t, a, G10Host(planner.Config{}), cfg)
	full := runOne(t, a, G10Full(planner.Config{}), cfg)
	t.Logf("gds=%.3f host=%.3f full=%.3f", gds.NormalizedPerf(), host.NormalizedPerf(), full.NormalizedPerf())
	// Full G10 must not lose to its own ablations.
	if full.IterationTime > host.IterationTime {
		t.Errorf("G10 (%v) slower than G10-Host (%v)", full.IterationTime, host.IterationTime)
	}
	if full.IterationTime > gds.IterationTime {
		t.Errorf("G10 (%v) slower than G10-GDS (%v)", full.IterationTime, gds.IterationTime)
	}
	// GDS must not touch the host.
	if gds.GPUToHost != 0 || gds.HostToGPU != 0 {
		t.Errorf("G10-GDS used host traffic: out=%v in=%v", gds.GPUToHost, gds.HostToGPU)
	}
}

func TestFlashNeuronNeverSwapsWeights(t *testing.T) {
	a, cfg := pressured(t)
	pol := FlashNeuron()
	prog := pol.(gpu.ProgramBuilder).Program(a, cfg)
	for _, b := range prog.Boundaries {
		for _, in := range b {
			if in.Kind == planner.OpPreEvict && in.Tensor.Kind != 1 /* dnn.Intermediate */ {
				t.Errorf("FlashNeuron scheduled eviction of %v tensor %s", in.Tensor.Kind, in.Tensor.Name)
			}
		}
	}
	res := runOne(t, a, FlashNeuron(), cfg)
	if !res.Failed && res.HostToGPU+res.GPUToHost != 0 {
		t.Errorf("FlashNeuron used host memory: %v/%v", res.GPUToHost, res.HostToGPU)
	}
}

func TestFlashNeuronFailsOnOversizedWorkingSet(t *testing.T) {
	a := analyze(t, 128, 200)
	cfg := testCfg(a.PeakActive()-units.MB, 2*units.GB)
	res := runOne(t, a, FlashNeuron(), cfg)
	if !res.Failed {
		t.Error("FlashNeuron did not fail with a working set above GPU memory (footnote 1)")
	}
	// A UVM policy survives the same configuration.
	res2 := runOne(t, a, BaseUVM(), cfg)
	if res2.Failed {
		t.Errorf("Base UVM failed: %s", res2.FailReason)
	}
}

func TestDeepUMPrefetchReducesFaultsVsBase(t *testing.T) {
	a, cfg := pressured(t)
	base := runOne(t, a, BaseUVM(), cfg)
	deep := runOne(t, a, DeepUMPlus(0), cfg)
	if deep.Faults >= base.Faults {
		t.Errorf("DeepUM+ faults (%d) not below Base UVM (%d)", deep.Faults, base.Faults)
	}
}

func TestG10FaultsAreRare(t *testing.T) {
	a, cfg := pressured(t)
	g10 := runOne(t, a, G10Full(planner.Config{}), cfg)
	base := runOne(t, a, BaseUVM(), cfg)
	if base.Faults == 0 {
		t.Skip("no pressure in scenario")
	}
	if float64(g10.Faults) > 0.2*float64(base.Faults) {
		t.Errorf("G10 faults (%d) not well below Base UVM (%d)", g10.Faults, base.Faults)
	}
}

func TestG10PlanAccessor(t *testing.T) {
	a, cfg := pressured(t)
	pol := G10Full(planner.Config{})
	runOne(t, a, pol, cfg)
	pl, ok := pol.(Planner)
	if !ok || pl.Plan() == nil {
		t.Fatal("G10 policy does not expose its plan")
	}
	if err := pl.Plan().Validate(); err != nil {
		t.Error(err)
	}
}

// TestG10VariantsSharePlans checks plan sharing through Program: G10 and
// G10-Host plan under the same effective config and so share one plan (and
// program); G10-GDS, or another GPU capacity, plans on its own.
func TestG10VariantsSharePlans(t *testing.T) {
	a, cfg := pressured(t)
	plan := func(pol gpu.Policy, cfg gpu.Config) *planner.Plan {
		prog := pol.(gpu.ProgramBuilder).Program(a, cfg)
		p := pol.(Planner).Plan()
		if p.Program != prog {
			t.Fatalf("%s: Program is not its plan's program", pol.Name())
		}
		return p
	}
	full := plan(G10Full(planner.Config{}), cfg)
	if len(full.Decisions) == 0 {
		t.Fatal("no decisions under pressure")
	}
	if plan(G10Host(planner.Config{}), cfg) != full {
		t.Error("G10-Host did not share G10's plan")
	}
	if plan(G10Adaptive(planner.Config{}, adapt.Config{}), cfg) != full {
		t.Error("adaptive G10 did not share G10's plan")
	}
	if plan(G10GDS(planner.Config{}), cfg) == full {
		t.Error("G10-GDS shares G10's plan")
	}
	smaller := cfg
	smaller.GPUCapacity -= units.MB
	if plan(G10Full(planner.Config{}), smaller) == full {
		t.Error("a smaller GPU shares the plan")
	}
}

func TestIdealConfig(t *testing.T) {
	cfg := IdealConfig(testCfg(units.GB, units.GB))
	if cfg.GPUCapacity != 1<<60 {
		t.Errorf("IdealConfig capacity = %v", cfg.GPUCapacity)
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]gpu.Policy{
		"Base UVM":    BaseUVM(),
		"DeepUM+":     DeepUMPlus(4),
		"FlashNeuron": FlashNeuron(),
		"G10":         G10Full(planner.Config{}),
		"G10-GDS":     G10GDS(planner.Config{}),
		"G10-Host":    G10Host(planner.Config{}),
		"Ideal":       Ideal(),
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("policy name %q != %q", p.Name(), want)
		}
	}
}

func TestAdaptiveWrapper(t *testing.T) {
	// Adaptation is an attribute of the run, not a different design: the
	// wrapped policy keeps the base name, plans, and implements the
	// replanning hook.
	p := G10Adaptive(planner.Config{}, adapt.Config{})
	if p.Name() != "G10" {
		t.Errorf("adaptive name = %q, want G10", p.Name())
	}
	if _, ok := p.(gpu.ProgramBuilder); !ok {
		t.Error("adaptive G10 lost the program builder")
	}
	if _, ok := p.(gpu.Replanner); !ok {
		t.Error("adaptive G10 does not implement Replanner")
	}
	for _, variant := range []gpu.Policy{G10Host(planner.Config{}), G10GDS(planner.Config{})} {
		w := Adaptive(variant, adapt.Config{})
		if w == variant {
			t.Errorf("%s was not wrapped", variant.Name())
		}
		if w.Name() != variant.Name() {
			t.Errorf("wrapped name %q != %q", w.Name(), variant.Name())
		}
	}
	// Non-planning policies have no program to re-time: pass through.
	base := BaseUVM()
	if Adaptive(base, adapt.Config{}) != base {
		t.Error("reactive policy was wrapped")
	}
}
