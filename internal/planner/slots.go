package planner

import (
	"math"
	"sort"

	"g10sim/internal/units"
)

// maxTree is an iterative segment tree maintaining range maxima over a
// float64 slice whose elements are updated in place. It lets the scheduler
// answer "does the tensor fit in host memory across this window?"
// (hostFits) in O(log n) instead of scanning every slot, while the
// underlying per-slot float arithmetic — and therefore every rounding
// decision — stays exactly as before.
type maxTree struct {
	base int
	t    []float64
	src  []float64
}

func newMaxTree(src []float64) *maxTree {
	base := 1
	for base < len(src) {
		base <<= 1
	}
	t := make([]float64, 2*base)
	for i := range t {
		t[i] = math.Inf(-1)
	}
	m := &maxTree{base: base, t: t, src: src}
	copy(t[base:], src)
	for i := base - 1; i >= 1; i-- {
		t[i] = math.Max(t[2*i], t[2*i+1])
	}
	return m
}

// update re-syncs leaves [a, b) from src and their ancestors.
func (m *maxTree) update(a, b int) {
	if b <= a {
		return
	}
	copy(m.t[m.base+a:m.base+b], m.src[a:b])
	lo, hi := (m.base+a)>>1, (m.base+b-1)>>1
	for lo >= 1 {
		for i := lo; i <= hi; i++ {
			m.t[i] = math.Max(m.t[2*i], m.t[2*i+1])
		}
		lo >>= 1
		hi >>= 1
	}
}

// queryMax reports the maximum over [a, b); -Inf when empty.
func (m *maxTree) queryMax(a, b int) float64 {
	out := math.Inf(-1)
	lo, hi := a+m.base, b+m.base
	for lo < hi {
		if lo&1 == 1 {
			out = math.Max(out, m.t[lo])
			lo++
		}
		if hi&1 == 1 {
			hi--
			out = math.Max(out, m.t[hi])
		}
		lo >>= 1
		hi >>= 1
	}
	return out
}

// bitset indexes the kernel slots whose pressure exceeds GPU capacity, so
// the benefit integral (excessArea) visits only contributing slots.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// fullSlotSpan reports the global-slot interval [g0, gEnd) that
// forEachFullSlot(from, to) visits: slot g (lap g/n, kernel g%n) is visited
// iff it starts at or after from and ends at or before to, with the
// timeline wrapping cyclically every iteration.
func (pl *planner) fullSlotSpan(from, to units.Time) (g0, gEnd int64) {
	n := int64(pl.n)
	lap := int64(from / pl.total)
	rem := from - units.Time(lap)*pl.total
	k := int64(sort.Search(pl.n, func(i int) bool { return pl.starts[i] >= rem }))
	g0 = lap*n + k
	if to <= from {
		return g0, g0
	}
	startOf := func(g int64) units.Time {
		return pl.starts[int(g%n)] + units.Time(g/n)*pl.total
	}
	// startOf is nondecreasing in g, so the exit condition of the original
	// per-slot loop is a monotone predicate and the interval end can be
	// binary-searched.
	span := (int64(to/pl.total)+2)*n - g0
	if span < 0 {
		span = 0
	}
	cnt := int64(sort.Search(int(span), func(i int) bool {
		return startOf(g0+int64(i)+1) > to
	}))
	return g0, g0 + cnt
}

// touchedSlotRange reports the local slot interval [k0, kEnd) overlapping
// the (non-wrapped) window [a, b) — the per-subwindow decomposition of
// forEachTouchedSlot.
func (pl *planner) touchedSlotRange(a, b units.Time) (int, int) {
	if b <= a {
		return 0, 0
	}
	n := pl.n
	k0 := sort.Search(n, func(i int) bool { return pl.starts[i+1] > a })
	kEnd := sort.Search(n, func(i int) bool { return pl.starts[i] >= b })
	if kEnd < k0 {
		kEnd = k0
	}
	return k0, kEnd
}
