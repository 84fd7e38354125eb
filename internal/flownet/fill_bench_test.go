package flownet

import (
	"fmt"
	"math/rand"
	"testing"

	"g10sim/internal/units"
)

// benchFillChurn measures steady-state attach/detach churn on a synthetic
// one-giant-component topology: F flows over 8 shared channels (each route
// crosses two channels, chaining all eight — and every tenant — into a
// single coupling component). Each iteration advances to the next
// completion and starts a replacement flow on the same route, so every
// iteration costs one detach, one attach, and one rate re-derivation —
// the fleet regime's hot loop.
func benchFillChurn(b *testing.B, F int, refFill bool) {
	n := New()
	n.refFill = refFill
	chans := make([]*Resource, 8)
	for i := range chans {
		chans[i] = n.AddResource(fmt.Sprintf("chan%d", i), units.GBps(4))
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < F; i++ {
		p := n.AddResource(fmt.Sprintf("gpu%d/pcie", i), units.GBps(16))
		size := units.Bytes(8+rng.Intn(64)) * units.MB
		n.Start(fmt.Sprintf("f%d", i), size, nil, p, chans[i%8], chans[(i+1)%8])
	}
	n.NextEvent() // derive the initial allocation outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := n.AdvanceTo(n.NextEvent())
		for _, f := range done {
			size := units.Bytes(8+rng.Intn(64)) * units.MB
			n.Start(f.Label, size, nil, f.route...)
		}
	}
	b.StopTimer()
	// Components below frontierMinFlows never record a trace, so only the
	// larger sizes must reach the frontier refill.
	if !refFill && F >= frontierMinFlows && n.FrontierReuses() == 0 && b.N > 4 {
		b.Fatal("churn benchmark never hit the frontier refill path")
	}
}

// BenchmarkMaxMinFill is the heap fill's headline microbench: per-churn-event
// cost of the heap-driven fill with frontier refills, across fleet sizes.
// F=8 is a single machine's worth of flows, below frontierMinFlows, so every
// event runs a full component fill.
func BenchmarkMaxMinFill(b *testing.B) {
	for _, F := range []int{8, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("F=%d", F), func(b *testing.B) {
			benchFillChurn(b, F, false)
		})
	}
}

// BenchmarkMaxMinFillReference is the same workload on the retained
// reference fill (full scan loops, no trace) — the before side of the
// tentpole's ≥5x claim at F=10⁴.
func BenchmarkMaxMinFillReference(b *testing.B) {
	for _, F := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("F=%d", F), func(b *testing.B) {
			benchFillChurn(b, F, true)
		})
	}
}
