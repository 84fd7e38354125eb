package planner

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"g10sim/internal/models"
	"g10sim/internal/profile"
	"g10sim/internal/units"
	"g10sim/internal/vitality"
)

// planDigest pins Algorithm 1's output bit for bit over every paper model ×
// {host destination on, off} × {paper batch, half batch} × {40, 24 GB GPU}.
// The figure goldens check plans only through simulated outcomes; this
// checks the plans themselves, so a speed change to the planner that moves
// any decision, boundary or planned time fails here first. Regenerate it
// only for a deliberate change to the algorithm.
const planDigest = "c569025ca49d737702c10e415a2c1fd9b922c4f1faf4156f7ea12c584d12480a"

func TestPlanDigestPinned(t *testing.T) {
	h := sha256.New()
	for _, name := range models.Names() {
		spec, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{spec.PaperBatch, spec.PaperBatch / 2} {
			g := spec.Build(batch)
			a := vitality.MustAnalyze(g, profile.Profile(g, profile.A100(spec.TimeScale)))
			for _, useHost := range []bool{true, false} {
				for _, gpuCap := range []units.Bytes{40 * units.GB, 24 * units.GB} {
					cfg := Default()
					cfg.UseHost = useHost
					cfg.GPUCapacity = gpuCap
					hashPlan(h, New(a, cfg))
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != planDigest {
		t.Errorf("plan digest = %s, want %s", got, planDigest)
	}
}

// hashPlan folds every decision, the planned pressure summary and every
// instrumented instruction into h.
func hashPlan(h hash.Hash, p *Plan) {
	put := func(vs ...int64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	put(int64(len(p.Decisions)), int64(p.PeakPressure), int64(p.ResidualOverflow))
	for i := range p.Decisions {
		d := &p.Decisions[i]
		put(int64(d.Period.Tensor.ID), int64(d.Period.AfterKernel), int64(d.Target),
			int64(d.EvictBoundary), int64(d.PrefetchBoundary),
			int64(d.EvictStart), int64(d.EvictDone), int64(d.PrefetchStart), int64(d.Deadline))
	}
	for b, list := range p.Program.Boundaries {
		put(int64(b), int64(len(list)))
		for _, in := range list {
			put(int64(in.Kind), int64(in.Tensor.ID), int64(in.Target))
		}
	}
}
