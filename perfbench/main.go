// Command g10perf is the repository's benchmark. It runs one workload of
// the G10 simulator for a given time, checks every simulated output, and
// prints its metrics; the last line of standard output is one JSON object.
//
//	bash perfbench/run.sh --workload train-paper --seed 1 --seconds 30 --trace 0
//
// Each pass runs in a fresh child process, so no cache kept inside the
// program can make a later pass cheaper than what a user pays for one
// regeneration. With --trace 1 the run alternates untraced, bare and traced
// passes and reports per-layer metrics instead. README.md defines every
// metric and records why each workload was chosen.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is a reported metric and its unit.
type metric struct{ name, unit string }

// endToEnd lists the untraced run's metrics, in BENCHMARK.json's order.
var endToEnd = []metric{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"g10_norm_perf", "frac"},
	{"g10_speedup", "x"},
	{"makespan_s", "sim_s"},
}

// perLayer lists the traced run's metrics, in BENCHMARK.json's order.
var perLayer = []metric{
	{"models.build_s", "s"},
	{"profile.trace_s", "s"},
	{"vitality.analyze_s", "s"},
	{"vitality.periods", "count"},
	{"planner.calls", "count"},
	{"planner.plan_s", "s"},
	{"planner.decisions", "count"},
	{"planner.self_s", "s"},
	{"flownet.self_s", "s"},
	{"flownet.recomputes", "count"},
	{"flownet.fill_rounds", "count"},
	{"flownet.fill_res_scans", "count"},
	{"flownet.progress_touches", "count"},
	{"flownet.reap_scans", "count"},
	{"gpu.run_s", "s"},
	{"gpu.self_s", "s"},
	{"gpu.steps", "count"},
	{"uvm.self_s", "s"},
	{"uvm.faults", "count"},
	{"uvm.faulted_pages", "count"},
	{"ssd.self_s", "s"},
	{"ssd.host_write_gb", "GiB"},
	{"ssd.write_amp", "ratio"},
	{"policy.kv_offloads", "count"},
	{"policy.kv_reloads", "count"},
	{"policy.kv_preemptions", "count"},
	{"runtime.self_s", "s"},
	{"ttft_p50_s", "sim_s"},
	{"ttft_p99_s", "sim_s"},
	{"e2e_p99_s", "sim_s"},
	{"preempt_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// selfLayers maps the packages whose CPU-profile self time is reported.
var selfLayers = map[string]string{
	"g10sim/internal/planner": "planner.self_s",
	"g10sim/internal/flownet": "flownet.self_s",
	"g10sim/internal/gpu":     "gpu.self_s",
	"g10sim/internal/uvm":     "uvm.self_s",
	"g10sim/internal/ssd":     "ssd.self_s",
	"runtime":                 "runtime.self_s",
}

const (
	// A pass builds its inputs at least setupReps times and for at least
	// setupMin, each time from a collected heap; setup_s is the median, so
	// one slow build or a GC cycle left over from the last one does not
	// move it. Builds of a few milliseconds get more repeats.
	setupReps = 5
	setupMin  = 50 * time.Millisecond
	// hardLimit bounds a whole run, passes included. A run that reaches it
	// before every input set has run reports the sets that did run and
	// says it is incomplete; the sets it skipped are not counted as failed.
	hardLimit = 165 * time.Second
	// calRef is the calibration's time at the reference host speed, that
	// of the 2-vCPU VM the benchmark was written on. Host times are reported
	// at that speed: measured seconds x calRef / the median calibration
	// time of the run's passes. On a shared machine the host's speed drifts
	// by tens of percent over minutes; the calibration tracks that drift, so
	// scaled times compare across runs where raw ones do not.
	calRef = 0.08
)

func main() {
	name := flag.String("workload", "", "workload: train-paper, fleet-shared, serve-kv, or all to run the three in turn")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 30, "how long to keep starting passes")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from traced passes")
	pass := flag.Int("pass", -1, "run one pass with this index in this process and print its measurements")
	sub := flag.Int("sub", 0, "with -pass: which of the workload's input sets to run")
	mode := flag.String("mode", modeTimed, "with -pass: "+modeTimed+", "+modeTraced+" or "+modeBare)
	flag.Parse()

	w, ok := lookupWorkload(*name)
	if !ok && *name != "all" || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "g10perf: need --workload (train-paper, fleet-shared, serve-kv or all), --seconds > 0 and --trace 0 or 1\n")
		os.Exit(2)
	}
	if *name == "all" {
		code := 0
		for _, w := range workloads {
			code = max(code, orchestrate(w, *seed, *seconds, *trace == 1))
		}
		os.Exit(code)
	}
	if *pass >= 0 {
		out, err := runPass(w, *seed, *sub, *pass, *mode)
		if err != nil {
			fmt.Fprintf(os.Stderr, "g10perf: %v\n", err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
			os.Exit(1)
		}
		return
	}
	os.Exit(orchestrate(w, *seed, *seconds, *trace == 1))
}

// passOut is what one pass reports to the parent process.
type passOut struct {
	Setup     float64            `json:"setup_s"`
	Wall      float64            `json:"wall_s"`
	AllocMB   float64            `json:"alloc_mb"`
	PeakMemMB float64            `json:"peak_mem_mb"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Outcomes  map[string]float64 `json:"outcomes"`
	Digest    string             `json:"digest"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Cal       float64            `json:"cal_s"`
}

// A pass runs in one of three modes.
const (
	modeTimed  = "timed"  // package g10sim alone
	modeTraced = "traced" // the internal layers, with spans, counters and a CPU profile
	modeBare   = "bare"   // the traced path with no spans, counters or profile
)

// runPass builds the inputs, runs them once and measures the run. A timed
// pass builds them repeatedly (see setupReps) and reports the median build;
// a traced or bare pass builds once.
func runPass(w workload, seed uint64, sub, pass int, mode string) (passOut, error) {
	var out passOut
	var t tracer
	var run func() *result
	switch mode {
	case modeTraced, modeBare:
		if mode == modeTraced {
			t = tracer{}
		}
		in, err := tracedSetup(w.name, seed, sub, t)
		if err != nil {
			return out, err
		}
		run = func() *result { return tracedRun(w.name, seed, sub, pass, in, t) }
	case modeTimed:
		var builds []float64
		var in timedInputs
		for total := 0.0; len(builds) < setupReps || total < setupMin.Seconds(); {
			in = timedInputs{}
			runtime.GC()
			start := time.Now()
			var err error
			if in, err = timedSetup(w.name, seed, sub); err != nil {
				return out, err
			}
			builds = append(builds, since(start))
			total += builds[len(builds)-1]
		}
		out.Setup = median(builds)
		run = func() *result { return timedRun(w.name, seed, sub, pass, in) }
	default:
		return out, fmt.Errorf("unknown pass mode %q", mode)
	}
	traced := mode == modeTraced

	cal0 := calibrate()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return out, err
		}
	}
	start := time.Now()
	r := run()
	out.Wall = since(start)
	if traced {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&ms)
	out.AllocMB = float64(ms.TotalAlloc-alloc0) / 1e6
	out.Cal = (cal0 + calibrate()) / 2
	if traced {
		self, err := selfTimes(prof.Bytes())
		if err != nil {
			return out, err
		}
		for pkg, key := range selfLayers {
			t[key] = self[pkg]
		}
		for _, v := range self {
			t["cpu.profile_s"] += v
		}
		out.Layers = t
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return out, fmt.Errorf("getrusage: %w", err)
	}
	out.PeakMemMB = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux

	r.check()
	out.Attempted, out.Failed, out.Problems = r.attempted, len(r.bad), r.problems
	out.Outcomes, out.Digest = r.outcomes(), r.digest()
	return out, nil
}

// orchestrate runs passes in child processes until the time is up and every
// input set has run, then prints the run's metrics. It returns the exit
// code: 0 only when every check passed.
func orchestrate(w workload, seed uint64, seconds float64, trace bool) int {
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "g10perf: %v\n", err)
		return 1
	}

	modes := []string{modeTimed}
	if trace {
		modes = []string{modeTimed, modeBare, modeTraced}
	}
	var (
		byMode            = map[string][][]passOut{}
		digest            = make([]string, w.traces)
		attempted, failed int
		problems, notes   []string
		longest           time.Duration
		passes            int
		problem           = func(s string) { problems = append(problems, s) }
	)
	for _, m := range modes {
		byMode[m] = make([][]passOut, w.traces)
	}
	stop := false
	for i := 0; !stop; i++ {
		sub := i % w.traces
		for _, mode := range modes {
			t0 := time.Now()
			out, err := spawn(ctx, exe, w, seed, sub, i, mode)
			longest = max(longest, time.Since(t0))
			stop = err != nil
			if err != nil && ctx.Err() != nil {
				notes = append(notes, fmt.Sprintf("the %v time limit stopped pass %d (%s)", hardLimit, i, mode))
				break
			}
			passes++
			if err != nil {
				attempted += w.units
				failed += w.units
				problem(fmt.Sprintf("pass %d: %v", i, err))
				break
			}
			attempted += out.Attempted
			failed += out.Failed
			for _, p := range out.Problems {
				problem(fmt.Sprintf("pass %d: %s", i, p))
			}
			switch {
			case digest[sub] == "":
				digest[sub] = out.Digest
			case out.Digest != digest[sub]:
				failed += out.Attempted
				problem(fmt.Sprintf("pass %d (%s): simulated outputs differ from the first pass of input set %d", i, mode, sub))
			}
			byMode[mode][sub] = append(byMode[mode][sub], out)
		}
		elapsed := time.Since(start)
		covered := i+1 >= w.traces
		stop = stop || covered && (failed > 0 || elapsed.Seconds() >= seconds) || elapsed+2*longest > hardLimit
	}
	timed, bare, traced := byMode[modeTimed], byMode[modeBare], byMode[modeTraced]
	ran := 0
	for _, ps := range timed {
		if len(ps) > 0 {
			ran++
		}
	}
	switch {
	case ran == 0:
		// Nothing to report: a run must attempt something.
		failed++
		attempted++
		problem("no pass finished")
	case ran < w.traces:
		// A slow host ran out of time: the sets that ran are reported, the
		// others are neither attempted nor failed.
		notes = append(notes, fmt.Sprintf("INCOMPLETE: %d of %d input sets ran; the metrics cover those", ran, w.traces))
	}

	// Host times are scaled to the reference host speed by the median
	// calibration of the run's passes; each host metric is the mean over
	// input sets of the per-set median.
	every := slices.Concat(slices.Concat(timed...), slices.Concat(bare...), slices.Concat(traced...))
	cal := median(pluck(every, func(p passOut) float64 { return p.Cal }))
	speed := calRef / cal
	wall := func(p passOut) float64 { return p.Wall }
	raw := perSet(timed, wall)
	metrics := map[string]float64{
		"wall_s":   raw * speed,
		"setup_s":  perSet(timed, func(p passOut) float64 { return p.Setup }) * speed,
		"alloc_mb": perSet(timed, func(p passOut) float64 { return p.AllocMB }),
		// Peak RSS moves with GC timing by ±15% from pass to pass and by as
		// much between runs, too much to gate on; the summary prints it.
		"peak_mem_mb": median(pluck(slices.Concat(timed...), func(p passOut) float64 { return p.PeakMemMB })),
	}
	for _, ps := range timed {
		if len(ps) > 0 {
			for k, v := range ps[0].Outcomes {
				metrics[k] += v / float64(ran)
			}
		}
	}
	if i := slices.IndexFunc(traced, func(ps []passOut) bool { return len(ps) > 0 }); i >= 0 {
		for key := range traced[i][0].Layers {
			v := perSet(traced, func(p passOut) float64 { return p.Layers[key] })
			if strings.HasSuffix(key, "_s") { // a host time
				v *= speed
			}
			metrics[key] = v
		}
		if host := metrics["ssd.host_write_gb"]; host > 0 {
			metrics["ssd.write_amp"] = metrics["ssd.nand_write_gb"] / host
		}
		// Traced and bare passes run the same path; only the spans,
		// counters and profile differ. Each pass's wall is taken at its own
		// calibration, so host drift between the two does not show.
		own := func(p passOut) float64 { return p.Wall / p.Cal }
		metrics["trace.overhead_frac"] = perSet(traced, own)/perSet(bare, own) - 1
	}

	report(w, seed, trace, passes, raw, cal, time.Since(start), attempted, failed, problems, notes, metrics)
	if failed > 0 {
		return 1
	}
	return 0
}

// spawn runs one pass in a child process and decodes its report.
func spawn(ctx context.Context, exe string, w workload, seed uint64, sub, pass int, mode string) (passOut, error) {
	var out passOut
	cmd := exec.CommandContext(ctx, exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-sub", strconv.Itoa(sub), "-pass", strconv.Itoa(pass), "-mode", mode)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return out, fmt.Errorf("child pass: %w", err)
	}
	if err := json.Unmarshal(stdout, &out); err != nil {
		return out, fmt.Errorf("child pass output: %w", err)
	}
	return out, nil
}

// report prints the human-readable summary and, last, the JSON result.
func report(w workload, seed uint64, trace bool, passes int, raw, cal float64, took time.Duration, attempted, failed int, problems, notes []string, metrics map[string]float64) {
	fmt.Printf("# g10perf workload=%s seed=%d trace=%v nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		w.name, seed, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	fmt.Printf("# why: %s\n", w.why)
	fmt.Printf("# %d passes over %d input set(s) in %.1f s, each in a fresh process\n", passes, w.traces, took.Seconds())
	fmt.Printf("# unscaled wall %.4g s per pass; calibration %.4g s against the reference %.4g s, so host times below are scaled by %.4f\n", raw, cal, calRef, calRef/cal)
	for _, n := range notes {
		fmt.Printf("# %s\n", n)
	}
	for _, p := range problems {
		fmt.Printf("# FAILED CHECK %s\n", p)
	}
	fmt.Printf("# %-26s %14.6g %s (%d of %d simulated units)\n", "failed_frac", float64(failed)/float64(max(attempted, 1)), "frac", failed, attempted)
	list := endToEnd
	if trace {
		list = perLayer
	}
	out := map[string]any{}
	for _, m := range list {
		v := metrics[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // only after a failed pass; the run already reports it
		}
		fmt.Printf("# %-26s %14.6g %s\n", m.name, v, m.unit)
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	if total := metrics["cpu.profile_s"]; trace && total > 0 {
		var b strings.Builder
		rest := 1.0
		for _, k := range []string{"flownet.self_s", "planner.self_s", "gpu.self_s", "uvm.self_s", "ssd.self_s", "runtime.self_s"} {
			f := metrics[k] / total
			rest -= f
			fmt.Fprintf(&b, " %s %.1f%%", strings.TrimSuffix(k, ".self_s"), 100*f)
		}
		fmt.Printf("# self-time shares of the traced passes' CPU profile:%s, other %.1f%%\n", b.String(), 100*rest)
	}
	if !trace {
		if w.name == "train-paper" {
			fmt.Printf("# paper check: g10_norm_perf %.4f vs Figure 11's %.3f (error %+.1f%%); g10_speedup %.3fx vs the abstract's up to %.2fx (error %+.1f%%)\n",
				metrics["g10_norm_perf"], paperNormPerf, 100*(metrics["g10_norm_perf"]/paperNormPerf-1),
				metrics["g10_speedup"], paperSpeedup, 100*(metrics["g10_speedup"]/paperSpeedup-1))
		} else {
			fmt.Printf("# paper check: none; %s's simulated outcomes are unvalidated (the repository holds no reference for them)\n", w.name)
		}
		fmt.Printf("# %-26s %14.6g MB (median peak RSS of a pass; not gated, it moves with GC timing)\n", "peak_mem_mb", metrics["peak_mem_mb"])
		for _, k := range []string{"ttft_p50_s", "ttft_p99_s", "e2e_p99_s", "preempt_frac"} {
			if v, ok := metrics[k]; ok {
				fmt.Printf("# %-26s %14.6g (serving outcome; reported with --trace 1)\n", k, v)
			}
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out,
	})
	fmt.Println(string(line))
}

// commit is the VCS revision the binary was built from, when known.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func pluck(ps []passOut, f func(passOut) float64) []float64 {
	var v []float64
	for _, p := range ps {
		v = append(v, f(p))
	}
	return v
}

// perSet is the mean over input sets of the median of f over each set's
// passes, so every run weighs the same inputs equally. Sets that did not
// run are left out.
func perSet(sets [][]passOut, f func(passOut) float64) float64 {
	var sum float64
	n := 0
	for _, ps := range sets {
		if len(ps) > 0 {
			sum += median(pluck(ps, f))
			n++
		}
	}
	return sum / float64(max(n, 1))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
