package planner

import (
	"math"
	"math/rand/v2"
	"testing"

	"g10sim/internal/units"
)

// refForward is the slot-by-slot forward walk that channel.scheduleForward
// must reproduce bit for bit: it visits every slot, drained or not, and
// books without maintaining live pointers. It reads c's slot geometry and
// free time, so the reference runs on its own channel instance.
func refForward(c *channel, t units.Time, n units.Bytes, commit bool) (units.Time, bool) {
	if c.bw <= 0 {
		return 0, false
	}
	need := float64(n) / c.bw
	if need == 0 {
		return t, true
	}
	var draws []draw
	nslots := c.slots()
	k := c.slotOf(t)
	pos := t
	for step := 0; step < 2*nslots; step++ {
		idx := k % nslots
		lap := units.Time(k/nslots) * c.total
		slotEnd := c.starts[idx+1] + lap
		avail := c.freeAfter(idx, pos-lap)
		if avail >= need {
			var done units.Time
			if avail > 0 {
				remFrac := need / avail
				done = pos + units.Time(float64(slotEnd-pos)*remFrac)
			} else {
				done = slotEnd
			}
			draws = append(draws, draw{idx, need})
			if commit {
				refBook(c, draws)
			}
			return done, true
		}
		if avail > 0 {
			draws = append(draws, draw{idx, avail})
			need -= avail
		}
		k++
		pos = slotEnd
	}
	return 0, false
}

// refBackward is the slot-by-slot backward walk.
func refBackward(c *channel, deadline units.Time, n units.Bytes, commit bool) (units.Time, bool) {
	if c.bw <= 0 {
		return 0, false
	}
	need := float64(n) / c.bw
	if need == 0 {
		return deadline, true
	}
	var draws []draw
	nslots := c.slots()
	pos := deadline
	if pos > c.total {
		pos = c.total
	}
	k := c.slotOf(pos - 1)
	for step := 0; step < 2*nslots; step++ {
		idx := ((k % nslots) + nslots) % nslots
		var lap units.Time
		if k < 0 {
			lap = -c.total
		}
		slotStart := c.starts[idx] + lap
		avail := c.freeBefore(idx, pos-lap)
		if avail >= need {
			var start units.Time
			if avail > 0 {
				remFrac := need / avail
				start = pos - units.Time(float64(pos-slotStart)*remFrac)
			} else {
				start = slotStart
			}
			draws = append(draws, draw{idx, need})
			if commit {
				refBook(c, draws)
			}
			return start, true
		}
		if avail > 0 {
			draws = append(draws, draw{idx, avail})
			need -= avail
		}
		k--
		pos = slotStart
	}
	return 0, false
}

func refBook(c *channel, draws []draw) {
	for _, d := range draws {
		c.free[d.slot] -= d.amt
		if c.free[d.slot] < 0 {
			c.free[d.slot] = 0
		}
	}
}

// randomStarts builds n kernel boundaries with 0.1–2 ms slots, about one in
// six of them zero-length.
func randomStarts(r *rand.Rand, n int) []units.Time {
	s := make([]units.Time, n+1)
	for k := 1; k <= n; k++ {
		var d units.Time
		if r.IntN(6) != 0 {
			d = 100*units.Microsecond + units.Time(r.Int64N(int64(1900*units.Microsecond)))
		}
		s[k] = s[k-1] + d
	}
	return s
}

// TestChannelMatchesSlotWalk drives random booking sequences through the
// drained-slot-skipping channel and the slot-by-slot reference: forward and
// backward, previews and commits, start times before zero and past the
// iteration total, transfers too large for the two-lap bound, and
// zero-length slots. Every return value and every slot's free time must be
// bit-equal after every call.
func TestChannelMatchesSlotWalk(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	var drainedSkips, failures int
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.IntN(40)
		starts := randomStarts(r, n)
		bw := units.GBps(0.5 + 3.5*r.Float64())
		fast := newChannel("fast", starts, bw)
		ref := newChannel("ref", starts, bw)
		total := starts[n]
		// Bytes the channel moves in one lap; sizes reach past two laps.
		lapBytes := float64(bw) * total.Seconds()
		for op := 0; op < 60; op++ {
			var size units.Bytes
			switch r.IntN(8) {
			case 0:
				size = 0
			case 1:
				size = units.Bytes(lapBytes * (1.5 + 2*r.Float64()))
			default:
				size = units.Bytes(lapBytes * 0.3 * r.Float64())
			}
			at := units.Time(float64(total) * (3*r.Float64() - 0.5))
			commit := r.IntN(3) != 0
			var got, want units.Time
			var gotOK, wantOK bool
			if r.IntN(4) == 0 {
				got, gotOK = fast.scheduleBackward(at, size, commit)
				want, wantOK = refBackward(ref, at, size, commit)
			} else {
				for k := fast.slotOf(at); k < n && fast.free[k] == 0; k++ {
					drainedSkips++
				}
				got, gotOK = fast.scheduleForward(at, size, commit)
				want, wantOK = refForward(ref, at, size, commit)
			}
			if got != want || gotOK != wantOK {
				t.Fatalf("trial %d op %d: got (%v, %v), reference (%v, %v)", trial, op, got, gotOK, want, wantOK)
			}
			if !gotOK {
				failures++
			}
			for k := range ref.free {
				if math.Float64bits(fast.free[k]) != math.Float64bits(ref.free[k]) {
					t.Fatalf("trial %d op %d: slot %d free %v, reference %v", trial, op, k, fast.free[k], ref.free[k])
				}
			}
		}
	}
	if drainedSkips == 0 || failures == 0 {
		t.Errorf("sequences never hit a drained slot (%d) or the two-lap bound (%d)", drainedSkips, failures)
	}
}
