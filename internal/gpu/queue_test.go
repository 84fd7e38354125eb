package gpu

import (
	"container/heap"
	"math/rand/v2"
	"slices"
	"testing"

	"g10sim/internal/units"
)

// refHeap is container/heap's view of a typed queue's entries, under the
// same before ordering: the oracle the typed push/pop must mirror.
type refHeap[E interface{ before(E) bool }] []E

func (h refHeap[E]) Len() int           { return len(h) }
func (h refHeap[E]) Less(i, j int) bool { return h[i].before(h[j]) }
func (h refHeap[E]) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap[E]) Push(x any)        { *h = append(*h, x.(E)) }
func (h *refHeap[E]) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// mirrorHeap drives one random push/pop sequence through a typed queue and
// through container/heap, failing on the first operation after which the
// two backing arrays (or the popped entries) differ.
func mirrorHeap[E interface {
	comparable
	before(E) bool
}](t *testing.T, rng *rand.Rand, ops int, gen func() E, push func(E), pop func() E, live func() []E) {
	t.Helper()
	var ref refHeap[E]
	for op := 0; op < ops; op++ {
		if len(ref) == 0 || rng.IntN(5) < 3 {
			e := gen()
			push(e)
			heap.Push(&ref, e)
		} else if got, want := pop(), heap.Pop(&ref).(E); got != want {
			t.Fatalf("op %d: pop = %+v, container/heap popped %+v", op, got, want)
		}
		if !slices.Equal(live(), ref) {
			t.Fatalf("op %d: backing array %+v, container/heap has %+v", op, live(), ref)
		}
	}
}

// TestExecHeapMirrorsContainerHeap pins the kernel-end queue to
// container/heap's exact array evolution. Keys come from a tiny range so
// that equal (at, idx) pairs are common.
func TestExecHeapMirrorsContainerHeap(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 13))
		var h execHeap
		gen := func() execEntry {
			return execEntry{at: units.Time(rng.IntN(6)), idx: rng.IntN(4)}
		}
		mirrorHeap(t, rng, 2000, gen, h.push, h.pop, func() []execEntry { return h })
	}
}

// TestAdmitHeapMirrorsContainerHeap does the same for the admission queue.
// Each entry carries its own request pointer, so two entries with equal
// (reload, key, idx) are still told apart: a swap among equals shows up.
func TestAdmitHeapMirrorsContainerHeap(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 14))
		var h admitHeap
		gen := func() admitEntry {
			return admitEntry{
				reload: rng.IntN(2) == 0,
				key:    units.Time(rng.IntN(4)),
				idx:    rng.IntN(3),
				q:      new(infReq),
			}
		}
		mirrorHeap(t, rng, 2000, gen, h.push, h.pop, func() []admitEntry { return h })
	}
}

// TestTypedQueuesAllocationFree asserts that a push+pop cycle on a warmed
// queue allocates nothing: no boxing through any, no growth.
func TestTypedQueuesAllocationFree(t *testing.T) {
	var eh execHeap
	var ah admitHeap
	q := new(infReq)
	for i := 0; i < 64; i++ {
		eh.push(execEntry{at: units.Time(i * 7 % 13), idx: i})
		ah.push(admitEntry{reload: i%3 == 0, key: units.Time(i * 5 % 11), idx: i, q: q})
	}
	if n := testing.AllocsPerRun(1000, func() {
		e := eh.pop()
		e.at += 9
		eh.push(e)
	}); n != 0 {
		t.Errorf("execHeap push+pop: %.1f allocs per cycle, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		e := ah.pop()
		e.key += 9
		ah.push(e)
	}); n != 0 {
		t.Errorf("admitHeap push+pop: %.1f allocs per cycle, want 0", n)
	}
}
