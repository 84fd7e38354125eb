package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// A workload is one set of inputs the benchmark runs. The timed run drives
// it through package g10sim alone (timed.go); the traced run replays the
// same inputs through the internal layers with spans and counters
// (traced.go). Both fill the neutral result types below, so the checks, the
// simulated outcomes and the digest that proves the two runs agree are
// computed by one piece of code.
type workload struct {
	name string
	why  string
	// traces is how many seeded input sets one run cycles through; the
	// simulated outcomes are their mean, which steadies them across seeds.
	// train-paper's seed only permutes cell order, so it needs one.
	traces int
	// units is how many simulated units (cells, jobs or requests) one pass
	// attempts.
	units int
}

var workloads = []workload{
	{"train-paper", "the paper's own path, Figure 11 at full scale (5 models x 7 policies); traced self time: planner 27%, runtime 23%, flownet 17%, SSD 17%, gpu 6%, UVM 5%", 1, len(trainModels) * len(trainPolicies)},
	{"fleet-shared", "24 jobs sharing one 3-drive array and host pool under G10 and DeepUM+; traced self time: flownet 33%, SSD 18%, planner 18%, runtime 16%, gpu 7%", 4, 2 * fleetJobs},
	{"serve-kv", "3e4-request LLM serving trace, single-tier vs tiered KV; traced self time: gpu step machine 66%, runtime 25%, flownet 8%; no planner or SSD (control)", 8, 2 * serveReqs},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Paper references the repository holds: Figure 11's G10 mean of ideal and
// the abstract's "up to 1.75x" over the best baseline.
const (
	paperNormPerf = 0.903
	paperSpeedup  = 1.75
)

// Workload shapes.
var (
	trainModels   = []string{"BERT", "ViT", "Inceptionv3", "ResNet152", "SENet154"}
	trainPolicies = []string{"Ideal", "Base UVM", "FlashNeuron", "DeepUM+", "G10-GDS", "G10-Host", "G10"}
	// The best baseline of the speed-up claim is the fastest of these.
	baselinePolicies = []string{"Base UVM", "FlashNeuron", "DeepUM+"}

	fleetModels   = []string{"BERT", "ResNet152", "Inceptionv3"}
	fleetPolicies = []string{"G10", "DeepUM+"}
)

const (
	fleetJobs   = 24
	fleetSSDs   = 3
	fleetIters  = 2 // g10sim.DefaultConfig().Iterations, used for the arrival rule
	serveReqs   = 30_000
	serveGapSec = 0.0066 // ~151 req/s of simulated time
)

// cell is one (model, policy) training simulation.
type cell struct {
	Model, Policy  string
	Iter, Ideal    float64 // simulated seconds
	Norm           float64 // ideal/iteration
	Faults         int64
	ToSSD, FromSSD float64 // GiB over the measured iteration
	WA             float64
	Failed         bool
}

// job is one tenant of a fleet run.
type job struct {
	Model, Policy   string
	Iter, Norm      float64
	Throughput      float64
	Arrival, Finish float64
	Failed          bool
}

type fleetRun struct {
	Policy   string
	Jobs     []job
	Makespan float64
	ArrayWA  float64
	WriteGB  float64
}

// request is one served request's simulated timeline.
type request struct {
	Arrival, First, Finish float64
	Preempts               int
}

type serveRun struct {
	Tiered                         bool
	Reqs                           []request
	Preemptions, Offloads, Reloads int64
	Makespan                       float64
}

// result is what one pass of a workload produced.
type result struct {
	cells []cell
	fleet []fleetRun
	serve []serveRun
	// attempted counts simulated units: training cells, fleet jobs or
	// served requests. bad holds the ones that failed a check or whose
	// simulate call returned an error; problems says why.
	attempted int
	bad       map[string]bool
	problems  []string
}

func (r *result) fail(unit, format string, args ...any) {
	if r.bad == nil {
		r.bad = map[string]bool{}
	}
	r.bad[unit] = true
	if len(r.problems) < 20 {
		r.problems = append(r.problems, unit+": "+fmt.Sprintf(format, args...))
	}
}

// trainOrder is the cell order of one pass: the seed and the pass index
// permute it, and no result may depend on it.
func trainOrder(seed uint64, pass int) [][2]string {
	var cells [][2]string
	for _, m := range trainModels {
		for _, p := range trainPolicies {
			cells = append(cells, [2]string{m, p})
		}
	}
	rng := rand.New(rand.NewPCG(seed, uint64(pass)))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

// fleetArrivals returns the seeded arrival times: job i arrives at a
// uniformly random time within its own mean gap, [i, i+1) gaps. The mean
// gap is 1/8 of the catalogue's mean two-iteration ideal span (the fleet
// figure's rule), so arrivals overlap heavily.
func fleetArrivals(seed uint64, sub int, idealSec map[string]float64) []float64 {
	var mean float64
	for _, m := range fleetModels {
		mean += idealSec[m] * fleetIters
	}
	gap := mean / float64(len(fleetModels)) / 8
	rng := rand.New(rand.NewPCG(seed, 0x666c656574+uint64(sub))) // "fleet"
	at := make([]float64, fleetJobs)
	for i := range at {
		at[i] = gap * (float64(i) + rng.Float64())
	}
	return at
}

// serveSpec is one generated request: prompts N(512,160) capped at 1024,
// outputs Exp(160) capped at 512, the inference figure's full-mode shape.
type serveSpec struct {
	Arrival        float64
	Prompt, Output int
}

func serveTrace(seed uint64, sub int) []serveSpec {
	clamp := func(v, lo, hi int) int { return max(lo, min(hi, v)) }
	rng := rand.New(rand.NewPCG(seed, 0x7365727665+uint64(sub))) // "serve"
	reqs := make([]serveSpec, serveReqs)
	at := 0.0
	for i := range reqs {
		at += serveGapSec * rng.ExpFloat64()
		reqs[i] = serveSpec{
			Arrival: at,
			Prompt:  clamp(512+int(160*rng.NormFloat64()), 4, 1024),
			Output:  clamp(int(160*rng.ExpFloat64()), 4, 512),
		}
	}
	return reqs
}

// check applies the workload's correctness rules to a pass's outputs.
func (r *result) check() {
	if len(r.cells) > 0 {
		r.checkTrain()
	}
	for _, f := range r.fleet {
		for i, j := range f.Jobs {
			unit := fmt.Sprintf("%s/job%d", f.Policy, i)
			switch {
			case j.Failed:
				r.fail(unit, "job failed")
			case !(j.Arrival <= j.Finish && j.Finish <= f.Makespan):
				r.fail(unit, "arrival %v, finish %v, makespan %v out of order", j.Arrival, j.Finish, f.Makespan)
			}
		}
		if !(f.ArrayWA >= 1) {
			r.fail(f.Policy+"/array", "write amplification %v < 1", f.ArrayWA)
		}
	}
	for _, s := range r.serve {
		for i, q := range s.Reqs {
			if !(q.Arrival <= q.First && q.First <= q.Finish) {
				r.fail(fmt.Sprintf("tiered=%v/req%d", s.Tiered, i), "arrival %v, first token %v, finish %v out of order", q.Arrival, q.First, q.Finish)
			}
		}
	}
}

// checkTrain: Ideal is 1.0 and Ideal >= G10 > DeepUM+ > Base UVM in
// normalized performance, for every model.
func (r *result) checkTrain() {
	by := r.cellMap()
	for _, m := range trainModels {
		ideal, g10, deep, uvm := by[m+"/Ideal"], by[m+"/G10"], by[m+"/DeepUM+"], by[m+"/Base UVM"]
		if ideal == nil || g10 == nil || deep == nil || uvm == nil {
			r.fail(m, "missing cells")
			continue
		}
		if ideal.Norm != 1 {
			r.fail(m+"/Ideal", "normalized perf %v, want 1", ideal.Norm)
		}
		if !(ideal.Norm >= g10.Norm) {
			r.fail(m+"/G10", "G10 %v above Ideal %v", g10.Norm, ideal.Norm)
		}
		if !(g10.Norm > deep.Norm) {
			r.fail(m+"/DeepUM+", "DeepUM+ %v not below G10 %v", deep.Norm, g10.Norm)
		}
		if !(deep.Norm > uvm.Norm) {
			r.fail(m+"/Base UVM", "Base UVM %v not below DeepUM+ %v", uvm.Norm, deep.Norm)
		}
	}
}

func (r *result) cellMap() map[string]*cell {
	by := map[string]*cell{}
	for i := range r.cells {
		c := &r.cells[i]
		by[c.Model+"/"+c.Policy] = c
	}
	return by
}

// outcomes are the simulated metrics of a pass. They are deterministic at a
// given seed; a change made only for speed leaves them bit-identical.
//
//   - g10_norm_perf: mean G10 ideal/iteration over the models (train-paper)
//     or the G10 jobs (fleet-shared). On serve-kv, the trace's arrival span
//     over the tiered run's makespan: 1.0 when serving keeps pace with
//     arrivals.
//   - g10_speedup: train-paper, the max over models of the best baseline's
//     iteration time over G10's; fleet-shared, G10's aggregate throughput
//     over DeepUM+'s; serve-kv, single-tier TTFT p99 over tiered.
//   - makespan_s: simulated seconds of the G10 side: the sum of the G10
//     cells' iteration times, the G10 fleet makespan, the tiered serving
//     makespan.
//   - ttft_p50_s, ttft_p99_s, e2e_p99_s, preempt_frac: the tiered serving
//     run; absent on the training workloads.
func (r *result) outcomes() map[string]float64 {
	o := map[string]float64{}
	switch {
	case len(r.cells) > 0:
		by := r.cellMap()
		for _, m := range trainModels {
			g10 := by[m+"/G10"]
			if g10 == nil {
				continue
			}
			o["g10_norm_perf"] += g10.Norm / float64(len(trainModels))
			o["makespan_s"] += g10.Iter
			best := math.Inf(1)
			for _, p := range baselinePolicies {
				if c := by[m+"/"+p]; c != nil && !c.Failed {
					best = min(best, c.Iter)
				}
			}
			if !math.IsInf(best, 1) {
				o["g10_speedup"] = max(o["g10_speedup"], best/g10.Iter)
			}
		}
	case len(r.fleet) == len(fleetPolicies):
		var tp [2]float64
		for k, f := range r.fleet {
			for _, j := range f.Jobs {
				tp[k] += j.Throughput
			}
		}
		g10 := r.fleet[0]
		for _, j := range g10.Jobs {
			o["g10_norm_perf"] += j.Norm / float64(len(g10.Jobs))
		}
		o["g10_speedup"] = tp[0] / tp[1]
		o["makespan_s"] = g10.Makespan
	case len(r.serve) == 2:
		single, tiered := r.serve[0], r.serve[1]
		st, _ := latencies(single.Reqs)
		tt, te := latencies(tiered.Reqs)
		o["ttft_p50_s"] = quantile(tt, 0.50)
		o["ttft_p99_s"] = quantile(tt, 0.99)
		o["e2e_p99_s"] = quantile(te, 0.99)
		o["preempt_frac"] = float64(tiered.Preemptions) / float64(len(tiered.Reqs))
		o["g10_speedup"] = quantile(st, 0.99) / o["ttft_p99_s"]
		o["g10_norm_perf"] = tiered.Reqs[len(tiered.Reqs)-1].Arrival / tiered.Makespan
		o["makespan_s"] = tiered.Makespan
	}
	return o
}

// latencies returns sorted TTFT and e2e latencies.
func latencies(reqs []request) (ttft, e2e []float64) {
	for _, q := range reqs {
		ttft = append(ttft, q.First-q.Arrival)
		e2e = append(e2e, q.Finish-q.Arrival)
	}
	sort.Float64s(ttft)
	sort.Float64s(e2e)
	return ttft, e2e
}

// quantile is the nearest-rank q-quantile of a sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// digest fingerprints every simulated output of a pass, independent of the
// order cells ran in. %v prints floats in their shortest exact form.
func (r *result) digest() string {
	h := sha256.New()
	cells := append([]cell(nil), r.cells...)
	sort.Slice(cells, func(i, j int) bool {
		return cells[i].Model+"/"+cells[i].Policy < cells[j].Model+"/"+cells[j].Policy
	})
	for _, c := range cells {
		fmt.Fprintf(h, "%v\n", c)
	}
	for _, f := range r.fleet {
		fmt.Fprintf(h, "%v\n", f)
	}
	for _, s := range r.serve {
		fmt.Fprintf(h, "%v\n", s)
	}
	return hex.EncodeToString(h.Sum(nil))
}
