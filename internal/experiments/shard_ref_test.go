package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"g10sim/internal/gpu"
	"g10sim/internal/units"
)

// shardCounts are the shard dimensions the experiments-level differentials
// run; 1 degenerates to the sequential driver, 8 exceeds the two-tenant
// clusters' tenant count.
var shardCounts = []int{1, 2, 4, 8}

// TestShardedMatchesSequentialEveryModelPolicy is the experiments-level
// sharded differential: for every built-in model under every policy, a
// two-tenant co-simulation (one tenant arriving mid-run) under the sharded
// driver must be bit-identical to the sequential driver at every shard
// count — the sharded mirror of the polling differential above it.
func TestShardedMatchesSequentialEveryModelPolicy(t *testing.T) {
	s := NewSession(Options{Short: true})
	for _, model := range (Options{}).modelSet() {
		for _, polName := range PolicyNames {
			model, polName := model, polName
			t.Run(model+"/"+polName, func(t *testing.T) {
				a, err := s.Analysis(model, shortBatch[model])
				if err != nil {
					t.Fatal(err)
				}
				build := func() (gpu.ClusterParams, error) {
					cfg := scaledConfig(a)
					shared := cfg
					shared.HostCapacity = cfg.HostCapacity * 3 / 2
					var p gpu.ClusterParams
					p.Shared = shared
					for i := 0; i < 2; i++ {
						pol, err := NewPolicy(polName)
						if err != nil {
							return gpu.ClusterParams{}, err
						}
						tenant := gpu.ClusterTenant{Analysis: a, Policy: pol, Config: cfg}
						if i == 1 {
							tenant.ArrivalTime = 50 * units.Millisecond
						}
						p.Tenants = append(p.Tenants, tenant)
					}
					return p, nil
				}
				runOnce := func(shards int) (gpu.ClusterResult, int64) {
					params, err := build()
					if err != nil {
						t.Fatal(err)
					}
					params.Shards = shards
					var steps int64
					params.StepCount = &steps
					res, err := gpu.RunCluster(params)
					if err != nil {
						t.Fatal(err)
					}
					return res, steps
				}
				want, wantSteps := runOnce(0)
				for _, shards := range shardCounts {
					got, steps := runOnce(shards)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("shards=%d diverged from sequential driver:\nsharded:    %+v\nsequential: %+v", shards, got, want)
					}
					if steps != wantSteps {
						t.Errorf("shards=%d: %d scheduler steps, sequential took %d", shards, steps, wantSteps)
					}
				}
			})
		}
	}
}

// TestShardedMatchesSequentialFleetTrace runs the fleet study's real
// 16-job dynamic-arrival trace — mixed models, mid-run arrivals, one
// shared array — sharded against sequential at every shard count.
func TestShardedMatchesSequentialFleetTrace(t *testing.T) {
	s := NewSession(Options{Short: true})
	jobs, err := s.fleetTrace(16)
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func(shards int) (gpu.ClusterResult, int64) {
		p, err := s.fleetParams("G10", jobs)
		if err != nil {
			t.Fatal(err)
		}
		p.Shards = shards
		var steps int64
		p.StepCount = &steps
		res, err := gpu.RunCluster(p)
		if err != nil {
			t.Fatal(err)
		}
		return res, steps
	}
	want, wantSteps := runOnce(0)
	for _, shards := range shardCounts {
		got, steps := runOnce(shards)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d diverged from sequential driver on the fleet trace", shards)
		}
		if steps != wantSteps {
			t.Errorf("shards=%d: %d scheduler steps, sequential took %d", shards, steps, wantSteps)
		}
	}
}

// TestShardedMatchesGolden closes the sharded differential at full figure
// scale: every cluster-engine figure re-run with the sharded driver forced
// on must reproduce the committed golden snapshots byte for byte.
// TestGoldenFigures pins the sequential driver against the same files, so
// together they pin sharded == sequential across the multi-GPU grid, the
// co-location study, the dynamic-arrival fleet, adaptive replanning, and
// the scaling study's step counts.
func TestShardedMatchesGolden(t *testing.T) {
	sw := &switchWriter{}
	s := NewSession(Options{Short: true, Models: goldenModels, W: sw, Shards: 3})
	for _, name := range []string{"multigpu", "colocate", "fleet", "adapt", "scaling", "inference", "faults"} {
		for _, fig := range goldenFigures {
			if fig.name != name {
				continue
			}
			t.Run(name, func(t *testing.T) {
				var buf bytes.Buffer
				sw.w = &buf
				defer func() { sw.w = nil }()
				if err := fig.run(s); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join("testdata", "figure-"+name+".golden")
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing snapshot: %v", err)
				}
				if got := buf.Bytes(); !bytes.Equal(got, want) {
					t.Errorf("sharded driver drifted from golden figure %s%s", name, goldenDiff(want, got))
				}
			})
		}
	}
}
