package main

import (
	"fmt"
	"time"

	"g10sim/internal/experiments"
	"g10sim/internal/gpu"
	"g10sim/internal/models"
	"g10sim/internal/planner"
	"g10sim/internal/policy"
	"g10sim/internal/profile"
	"g10sim/internal/units"
	"g10sim/internal/vitality"
)

// The traced run replays a pass's inputs through the layers g10sim wraps,
// so that spans recorded here, around each call into a layer, time that
// layer. It mirrors what g10sim does for the same inputs, and
// g10sim.DefaultConfig() converts to gpu.Default(). A single-model Simulate
// calls gpu.Run, which has no StepCount or Engine out-parameter; the traced
// train-paper cells run as one-tenant gpu.RunCluster calls instead. The
// engine pins the two bit-identical in output, but their host time comes
// from a different construction path than Simulate's.
// The parent process checks that the traced outputs equal the timed ones,
// so a drift between this file and g10sim fails the run instead of
// skewing its numbers. README.md lists every internal identifier used.

// tracer accumulates span durations and counters by metric name. A nil
// tracer records nothing and leaves the policies unwrapped: a bare pass
// runs the traced path without spans, so that its wall time against a
// traced pass's measures what tracing costs.
type tracer map[string]float64

func (t tracer) add(name string, v float64) {
	if t != nil {
		t[name] += v
	}
}

func (t tracer) span(name string, start time.Time) { t.add(name, since(start)) }

// plannedPolicy times the planner call of a G10 policy: the engine asks the
// policy for its instrumented program once per tenant (gpu.ProgramBuilder),
// and the G10 policies run Algorithm 1 there.
type plannedPolicy struct {
	g10Policy
	t tracer
}

// g10Policy is a runtime policy that builds its program with the planner
// and exposes the resulting plan.
type g10Policy interface {
	gpu.Policy
	gpu.ProgramBuilder
	policy.Planner
}

func (p plannedPolicy) Program(a *vitality.Analysis, cfg gpu.Config) *planner.Program {
	start := time.Now()
	prog := p.g10Policy.Program(a, cfg)
	p.t.span("planner.plan_s", start)
	p.t.add("planner.calls", 1)
	p.t.add("planner.decisions", float64(len(p.Plan().Decisions)))
	return prog
}

// policy builds the named policy as g10sim does, wrapping the G10 ones.
func (t tracer) policy(name string) (gpu.Policy, error) {
	pol, err := experiments.NewPolicy(name)
	if err != nil {
		return nil, err
	}
	if g10, ok := pol.(g10Policy); ok && t != nil {
		return plannedPolicy{g10, t}, nil
	}
	return pol, nil
}

type tracedInputs struct {
	analyses map[string]*vitality.Analysis
	ideal    map[string]float64
	reqs     []serveSpec
}

func tracedSetup(w string, seed uint64, sub int, t tracer) (tracedInputs, error) {
	in := tracedInputs{analyses: map[string]*vitality.Analysis{}, ideal: map[string]float64{}}
	var names []string
	switch w {
	case "train-paper":
		names = trainModels
	case "fleet-shared":
		names = fleetModels
	case "serve-kv":
		in.reqs = serveTrace(seed, sub)
	}
	for _, m := range names {
		spec, err := models.ByName(m)
		if err != nil {
			return in, err
		}
		start := time.Now()
		g := spec.Build(0)
		t.span("models.build_s", start)
		start = time.Now()
		tr := profile.Profile(g, profile.A100(spec.TimeScale))
		t.span("profile.trace_s", start)
		start = time.Now()
		a, err := vitality.Analyze(g, tr)
		t.span("vitality.analyze_s", start)
		if err != nil {
			return in, fmt.Errorf("analyze %s: %w", m, err)
		}
		t.add("vitality.periods", float64(len(a.Periods)))
		in.analyses[m] = a
		in.ideal[m] = a.Trace.Total().Seconds()
	}
	return in, nil
}

// tracedRun is timedRun through the internal layers, with the engine's
// StepCount and Engine out-parameters collected into t.
func tracedRun(w string, seed uint64, sub, pass int, in tracedInputs, t tracer) *result {
	r := &result{}
	var steps int64
	var eng gpu.EngineStats
	var hostWrite, nandWrite units.Bytes
	runCluster := func(p gpu.ClusterParams) (gpu.ClusterResult, error) {
		p.StepCount, p.Engine = &steps, &eng
		start := time.Now()
		res, err := gpu.RunCluster(p)
		t.span("gpu.run_s", start)
		return res, err
	}
	switch w {
	case "train-paper":
		for _, mp := range trainOrder(seed, pass) {
			r.attempted++
			unit := mp[0] + "/" + mp[1]
			pol, err := t.policy(mp[1])
			if err != nil {
				r.fail(unit, "%v", err)
				continue
			}
			cfg := gpu.Default()
			if mp[1] == "Ideal" {
				cfg = policy.IdealConfig(cfg)
			}
			cres, err := runCluster(gpu.ClusterParams{
				Tenants: []gpu.ClusterTenant{{Analysis: in.analyses[mp[0]], Policy: pol, Config: cfg}},
				Shared:  cfg,
			})
			if err != nil {
				r.fail(unit, "%v", err)
				continue
			}
			res := cres.Tenants[0]
			t.add("uvm.faults", float64(res.Faults))
			t.add("uvm.faulted_pages", float64(res.FaultedPages))
			hostWrite += res.SSDStats.HostWriteBytes
			nandWrite += res.SSDStats.NANDWriteBytes
			r.cells = append(r.cells, cell{
				Model: res.Model, Policy: res.Policy, Iter: res.IterationTime.Seconds(), Ideal: res.IdealTime.Seconds(),
				Norm: res.NormalizedPerf(), Faults: res.Faults, ToSSD: res.GPUToSSD.GiB(), FromSSD: res.SSDToGPU.GiB(),
				WA: res.WriteAmp, Failed: res.Failed,
			})
		}
	case "fleet-shared":
		at := fleetArrivals(seed, sub, in.ideal)
		shared := gpu.Default()
		shared.SSD = shared.SSD.Array(fleetSSDs)
		for _, name := range fleetPolicies {
			r.attempted += fleetJobs
			tenants := make([]gpu.ClusterTenant, fleetJobs)
			var err error
			for i := range tenants {
				tenants[i] = gpu.ClusterTenant{
					Analysis:    in.analyses[fleetModels[i%len(fleetModels)]],
					Config:      shared,
					ArrivalTime: units.Time(at[i] * float64(units.Second)),
				}
				if tenants[i].Policy, err = t.policy(name); err != nil {
					break
				}
			}
			var cres gpu.ClusterResult
			if err == nil {
				cres, err = runCluster(gpu.ClusterParams{Tenants: tenants, Shared: shared})
			}
			if err != nil {
				for i := range tenants {
					r.fail(fmt.Sprintf("%s/job%d", name, i), "%v", err)
				}
				continue
			}
			for _, res := range cres.Tenants {
				t.add("uvm.faults", float64(res.Faults))
				t.add("uvm.faulted_pages", float64(res.FaultedPages))
			}
			hostWrite += cres.SSDStats.HostWriteBytes
			nandWrite += cres.SSDStats.NANDWriteBytes
			f := fleetRun{Policy: name, Makespan: cres.Makespan.Seconds(), ArrayWA: cres.WriteAmp, WriteGB: cres.SSDStats.HostWriteBytes.GiB()}
			for i, res := range cres.Tenants {
				f.Jobs = append(f.Jobs, job{
					Model: res.Model, Policy: res.Policy, Iter: res.IterationTime.Seconds(), Norm: res.NormalizedPerf(),
					Throughput: res.Throughput(), Arrival: cres.Spans[i].Arrival.Seconds(), Finish: cres.Spans[i].Finish.Seconds(),
					Failed: res.Failed,
				})
			}
			r.fleet = append(r.fleet, f)
		}
	case "serve-kv":
		specs := make([]gpu.RequestSpec, len(in.reqs))
		for i, q := range in.reqs {
			specs[i] = gpu.RequestSpec{Arrival: units.Time(q.Arrival * float64(units.Second)), PromptTokens: q.Prompt, OutputTokens: q.Output}
		}
		for _, tiered := range []bool{false, true} {
			r.attempted += len(specs)
			pol := policy.SingleTierKV()
			if tiered {
				pol = policy.TieredKV(0)
			}
			start := time.Now()
			res, err := gpu.RunInference(gpu.InferenceParams{Requests: specs, Policy: pol, StepCount: &steps, Engine: &eng})
			t.span("gpu.run_s", start)
			if err != nil {
				for i := range specs {
					r.fail(fmt.Sprintf("tiered=%v/req%d", tiered, i), "%v", err)
				}
				continue
			}
			t.add("policy.kv_offloads", float64(res.Offloads))
			t.add("policy.kv_reloads", float64(res.Reloads))
			t.add("policy.kv_preemptions", float64(res.Preemptions))
			s := serveRun{Tiered: tiered, Preemptions: res.Preemptions, Offloads: res.Offloads, Reloads: res.Reloads, Makespan: res.Makespan.Seconds()}
			for _, q := range res.Requests {
				s.Reqs = append(s.Reqs, request{Arrival: q.Arrival.Seconds(), First: q.FirstToken.Seconds(), Finish: q.Finish.Seconds(), Preempts: q.Preempts})
			}
			r.serve = append(r.serve, s)
		}
	}
	t.add("gpu.steps", float64(steps))
	t.add("flownet.recomputes", float64(eng.FlowRecomputes))
	t.add("flownet.fill_rounds", float64(eng.FillRounds))
	t.add("flownet.fill_res_scans", float64(eng.FillResScans))
	t.add("flownet.progress_touches", float64(eng.ProgressTouches))
	t.add("flownet.reap_scans", float64(eng.ReapScans))
	t.add("ssd.host_write_gb", hostWrite.GiB())
	t.add("ssd.nand_write_gb", nandWrite.GiB())
	return r
}
