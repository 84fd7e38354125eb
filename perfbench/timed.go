package main

import (
	"fmt"
	"time"

	"g10sim"
)

// The timed run uses package g10sim alone, through the entry points a user
// calls: BuildModel, Simulate, SimulateCluster and SimulateInference. It
// sets no shard, worker or driver option, so it runs the default
// sequential engine.

// timedInputs are a pass's inputs, built by timedSetup: what a user pays
// for before the first simulate call. The serving path has no set-up step
// in g10sim, so serve-kv's set-up is the benchmark's own: generating the
// request trace and converting it to g10sim requests. No change to the
// simulator moves it.
type timedInputs struct {
	models map[string]*g10sim.Workload
	ideal  map[string]float64 // stall-free iteration seconds per model
	reqs   []g10sim.InferenceRequest
}

func timedSetup(w string, seed uint64, sub int) (timedInputs, error) {
	in := timedInputs{models: map[string]*g10sim.Workload{}, ideal: map[string]float64{}}
	var names []string
	switch w {
	case "train-paper":
		names = trainModels
	case "fleet-shared":
		names = fleetModels
	case "serve-kv":
		trace := serveTrace(seed, sub)
		in.reqs = make([]g10sim.InferenceRequest, len(trace))
		for i, q := range trace {
			in.reqs[i] = g10sim.InferenceRequest{ArrivalSeconds: q.Arrival, PromptTokens: q.Prompt, OutputTokens: q.Output}
		}
	}
	for _, m := range names {
		wl, err := g10sim.BuildModel(m, 0)
		if err != nil {
			return in, fmt.Errorf("build %s: %w", m, err)
		}
		in.models[m] = wl
		in.ideal[m] = wl.Summary().IdealSeconds
	}
	return in, nil
}

// timedRun runs one pass of workload w on prepared inputs.
func timedRun(w string, seed uint64, sub, pass int, in timedInputs) *result {
	r := &result{}
	switch w {
	case "train-paper":
		for _, mp := range trainOrder(seed, pass) {
			r.attempted++
			rep, err := g10sim.Simulate(in.models[mp[0]], mp[1], g10sim.DefaultConfig())
			if err != nil {
				r.fail(mp[0]+"/"+mp[1], "%v", err)
				continue
			}
			r.cells = append(r.cells, cellFromReport(rep))
		}
	case "fleet-shared":
		at := fleetArrivals(seed, sub, in.ideal)
		for _, pol := range fleetPolicies {
			jobs := make([]g10sim.ClusterJob, fleetJobs)
			for i := range jobs {
				jobs[i] = g10sim.ClusterJob{
					Workload:       in.models[fleetModels[i%len(fleetModels)]],
					Policy:         pol,
					ArrivalSeconds: at[i],
				}
			}
			r.attempted += fleetJobs
			rep, err := g10sim.SimulateCluster(jobs, g10sim.ClusterConfig{Config: g10sim.DefaultConfig(), SSDs: fleetSSDs})
			if err != nil {
				for i := range jobs {
					r.fail(fmt.Sprintf("%s/job%d", pol, i), "%v", err)
				}
				continue
			}
			f := fleetRun{Policy: pol, Makespan: rep.MakespanSeconds, ArrayWA: rep.ArrayWriteAmplification, WriteGB: rep.ArrayWriteGB}
			for i, jr := range rep.Jobs {
				f.Jobs = append(f.Jobs, job{
					Model: jr.Model, Policy: jr.Policy, Iter: jr.IterationSeconds, Norm: jr.NormalizedPerf,
					Throughput: jr.Throughput, Arrival: rep.Spans[i].ArrivalSeconds, Finish: rep.Spans[i].FinishSeconds,
					Failed: jr.Failed,
				})
			}
			r.fleet = append(r.fleet, f)
		}
	case "serve-kv":
		for _, tiered := range []bool{false, true} {
			r.attempted += len(in.reqs)
			rep, err := g10sim.SimulateInference(in.reqs, g10sim.InferenceConfig{Tiered: tiered})
			if err != nil {
				for i := range in.reqs {
					r.fail(fmt.Sprintf("tiered=%v/req%d", tiered, i), "%v", err)
				}
				continue
			}
			s := serveRun{Tiered: tiered, Preemptions: rep.Preemptions, Offloads: rep.Offloads, Reloads: rep.Reloads, Makespan: rep.MakespanSeconds}
			for _, q := range rep.Requests {
				s.Reqs = append(s.Reqs, request{Arrival: q.ArrivalSeconds, First: q.FirstTokenSeconds, Finish: q.FinishSeconds, Preempts: q.Preempts})
			}
			r.serve = append(r.serve, s)
		}
	}
	return r
}

func cellFromReport(rep g10sim.Report) cell {
	return cell{
		Model: rep.Model, Policy: rep.Policy, Iter: rep.IterationSeconds, Ideal: rep.IdealSeconds,
		Norm: rep.NormalizedPerf, Faults: rep.Faults, ToSSD: rep.GPUToSSDGB, FromSSD: rep.SSDToGPUGB,
		WA: rep.WriteAmplification, Failed: rep.Failed,
	}
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }
