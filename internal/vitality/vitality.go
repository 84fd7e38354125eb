// Package vitality implements the paper's Tensor Vitality Analyzer (§4.2).
//
// Given a training-iteration graph and a kernel-duration trace, it derives
// for every tensor: when it is born and dead, at which kernels it is active
// (used by the currently executing kernel), and its inactive periods — the
// intervals in which it is alive but unused and may therefore be migrated
// out of GPU memory and back before its next use.
//
// Global (weight) tensors get a wrap-around inactive period spanning from
// their last use in this iteration to their first use in the next (Figure 6:
// "the inactive time period of a global tensor may span across two
// consecutive training iterations").
//
// The analysis also produces the per-kernel active/alive memory-consumption
// curves of Figure 2 and the inactive-period distributions of Figures 3–4.
package vitality

import (
	"fmt"
	"sync"

	"g10sim/internal/dnn"
	"g10sim/internal/profile"
	"g10sim/internal/units"
)

// TensorInfo is the per-tensor lifetime summary.
type TensorInfo struct {
	Tensor *dnn.Tensor
	// Uses are the kernel indices at which the tensor is active, ascending.
	Uses []int
	// BornAt is the first kernel that uses the tensor; global tensors are
	// born before the iteration (BornAt == -1).
	BornAt int
	// DeadAt is the index one past the last kernel that uses the tensor;
	// global tensors never die (DeadAt == number of kernels + 1 sentinel).
	DeadAt int
}

// AliveAt reports whether the tensor occupies memory during kernel k when
// nothing has been swapped out.
func (ti *TensorInfo) AliveAt(k int) bool { return ti.BornAt <= k && k < ti.DeadAt }

// Period is one inactive period of one tensor (§4.2): the tensor is alive
// but unused between the end of kernel AfterKernel and the start of kernel
// NextUse.
type Period struct {
	Tensor *dnn.Tensor
	// AfterKernel is the last kernel to use the tensor before the gap.
	AfterKernel int
	// NextUse is the kernel at which the tensor becomes active again. For a
	// wrap-around period this is a kernel of the *next* iteration, so
	// NextUse <= AfterKernel there.
	NextUse int
	// Wraps marks a global tensor's period spanning the iteration boundary.
	Wraps bool
	// Start and End place the period on the estimated (stall-free)
	// timeline; for wrap-around periods End = iteration total + next start.
	Start, End units.Time
}

// Duration reports the period's length on the estimated timeline.
func (p *Period) Duration() units.Duration { return p.End - p.Start }

// Analysis is the complete §4.2 output for one (graph, trace) pair.
type Analysis struct {
	Graph *dnn.Graph
	Trace *profile.Trace
	// Starts[k] is kernel k's start time on the stall-free timeline;
	// Starts[len(Kernels)] is the iteration's total time.
	Starts []units.Time
	// Infos is indexed by tensor ID.
	Infos []TensorInfo
	// Periods lists every inactive period of every tensor, ordered by
	// (tensor ID, start).
	Periods []Period
	// ActiveBytes[k] is the memory used by kernel k's working set.
	ActiveBytes []units.Bytes
	// AliveBytes[k] is the memory pressure at kernel k with no migrations:
	// the total size of all tensors alive during k.
	AliveBytes []units.Bytes

	// memo holds values derived from the analysis (see Memo).
	memo sync.Map
}

// Memo returns the value derived from the analysis under key, calling build
// on first use only. Concurrent callers of one key wait for a single build,
// and the value lives exactly as long as the analysis. key must be
// comparable; a caller should key by a type of its own so that packages do
// not collide.
func (a *Analysis) Memo(key any, build func() any) any {
	f, _ := a.memo.LoadOrStore(key, sync.OnceValue(build))
	return f.(func() any)()
}

// Analyze runs tensor vitality analysis.
func Analyze(g *dnn.Graph, tr *profile.Trace) (*Analysis, error) {
	if len(tr.Durations) != len(g.Kernels) {
		return nil, fmt.Errorf("vitality: trace has %d kernels, graph %q has %d",
			len(tr.Durations), g.Name, len(g.Kernels))
	}
	n := len(g.Kernels)
	a := &Analysis{
		Graph:       g,
		Trace:       tr,
		Starts:      tr.StartTimes(),
		Infos:       make([]TensorInfo, len(g.Tensors)),
		ActiveBytes: make([]units.Bytes, n),
		AliveBytes:  make([]units.Bytes, n),
	}

	uses := g.UseIndices()
	for id, t := range g.Tensors {
		info := TensorInfo{Tensor: t, Uses: uses[id]}
		switch t.Kind {
		case dnn.Global:
			info.BornAt = -1
			info.DeadAt = n + 1
		default:
			info.BornAt = uses[id][0]
			info.DeadAt = uses[id][len(uses[id])-1] + 1
		}
		a.Infos[id] = info
	}

	// Memory-consumption curves (Figure 2).
	for ki, k := range g.Kernels {
		a.ActiveBytes[ki] = k.WorkingSet()
	}
	// AliveBytes via +size at born, -size after death sweep.
	delta := make([]units.Bytes, n+1)
	for id := range a.Infos {
		info := &a.Infos[id]
		born := info.BornAt
		if born < 0 {
			born = 0
		}
		delta[born] += info.Tensor.Size
		if info.DeadAt <= n {
			delta[info.DeadAt] -= info.Tensor.Size
		}
	}
	var acc units.Bytes
	for ki := 0; ki < n; ki++ {
		acc += delta[ki]
		a.AliveBytes[ki] = acc
	}

	// Inactive periods (§4.2).
	total := a.Starts[n]
	for id := range a.Infos {
		info := &a.Infos[id]
		u := info.Uses
		for i := 0; i+1 < len(u); i++ {
			if u[i+1] == u[i]+1 {
				continue // back-to-back uses leave no gap
			}
			a.Periods = append(a.Periods, Period{
				Tensor:      info.Tensor,
				AfterKernel: u[i],
				NextUse:     u[i+1],
				Start:       a.Starts[u[i]+1],
				End:         a.Starts[u[i+1]],
			})
		}
		if info.Tensor.Kind == dnn.Global {
			// Wrap-around period: last use this iteration to first use next.
			last, first := u[len(u)-1], u[0]
			start := a.Starts[last+1]
			end := total + a.Starts[first]
			if end > start {
				a.Periods = append(a.Periods, Period{
					Tensor:      info.Tensor,
					AfterKernel: last,
					NextUse:     first,
					Wraps:       true,
					Start:       start,
					End:         end,
				})
			}
		}
	}
	return a, nil
}

// MustAnalyze is Analyze for deterministic inputs.
func MustAnalyze(g *dnn.Graph, tr *profile.Trace) *Analysis {
	a, err := Analyze(g, tr)
	if err != nil {
		panic(err)
	}
	return a
}

// PeakAlive reports the maximum no-migration memory pressure — what the
// Ideal baseline's GPU would have to hold.
func (a *Analysis) PeakAlive() units.Bytes {
	var peak units.Bytes
	for _, b := range a.AliveBytes {
		if b > peak {
			peak = b
		}
	}
	return peak
}

// PeakActive reports the maximum single-kernel working set.
func (a *Analysis) PeakActive() units.Bytes {
	var peak units.Bytes
	for _, b := range a.ActiveBytes {
		if b > peak {
			peak = b
		}
	}
	return peak
}

// KernelSpan reports the [start, end) interval of kernel k on the
// stall-free timeline.
func (a *Analysis) KernelSpan(k int) (units.Time, units.Time) {
	return a.Starts[k], a.Starts[k+1]
}

// HideablePeriods reports the fraction of inactive periods long enough to
// hide a round-trip to a device with the given one-way transfer time — the
// §3 observation that 60–80% of periods can hide SSD swap latency.
func (a *Analysis) HideablePeriods(latency units.Duration) float64 {
	if len(a.Periods) == 0 {
		return 0
	}
	var ok int
	for i := range a.Periods {
		p := &a.Periods[i]
		transfer := 2 * (latency + units.TransferTime(p.Tensor.Size, units.GBps(3.0)))
		if p.Duration() >= transfer {
			ok++
		}
	}
	return float64(ok) / float64(len(a.Periods))
}
