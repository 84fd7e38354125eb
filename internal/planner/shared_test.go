package planner

import (
	"sync"
	"testing"

	"g10sim/internal/units"
)

func TestSharedPlansOncePerEffectiveConfig(t *testing.T) {
	a := pressureGraph(t)
	cfg := testConfig()
	p := Shared(a, cfg)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Fields left zero take their defaults, so this is the same config.
	zeroed := cfg
	zeroed.SSDFullThreshold, zeroed.MaxDecisions = 0, 0
	if Shared(a, zeroed) != p {
		t.Error("configs equal after defaults got different plans")
	}
	gds := cfg
	gds.UseHost = false
	smaller := cfg
	smaller.GPUCapacity -= units.MB
	for name, c := range map[string]Config{"no host": gds, "smaller GPU": smaller} {
		if Shared(a, c) == p {
			t.Errorf("%s config shares the default plan", name)
		}
	}
	if Shared(pressureGraph(t), cfg) == p {
		t.Error("a second analysis shares the first one's plan")
	}
	if New(a, cfg) == p {
		t.Error("New returned the shared plan")
	}
}

func TestSharedConcurrentCallersGetOnePlan(t *testing.T) {
	a := pressureGraph(t)
	const callers = 16
	plans := make([]*Plan, callers)
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plans[i] = Shared(a, testConfig())
		}()
	}
	wg.Wait()
	for i, p := range plans {
		if p != plans[0] {
			t.Fatalf("caller %d got a different plan", i)
		}
	}
}
