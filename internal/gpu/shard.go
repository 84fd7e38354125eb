// Sharded cluster driver: conservative parallel discrete-event simulation
// over the same tenant step machines driveEvents advances.
//
// Tenants are partitioned into contiguous shards; each shard owns its
// scheduler bookkeeping — kernel-end heap, ready set, wake buffer, step
// counter — and a crew of goroutines advances that bookkeeping concurrently
// between barriers. Everything that can touch cross-tenant state (tenant
// steps mutating the shared host pool, flash array, and flow network; event
// delivery; arrival admission) runs on the coordinator in global tenant
// index order, which is exactly the order driveEvents uses: shards are
// contiguous index ranges, so concatenating per-shard wake lists in shard
// order reproduces the global ascending-index wake order. The shared-clock
// horizon is conservative — the minimum over every shard's earliest private
// event (kernel end), the next arrival, and the network's next event — so
// no shard ever observes state from beyond the barrier.
//
// The multi-core work under this driver is in the flow network itself:
// SetWorkers lets each rate re-derivation fill independent flow/resource
// components concurrently (flownet/components.go), and the sharded crew
// drains per-shard wake and heap state in parallel. Both merge in fixed
// shard/component order, so the result is byte-identical to driveEvents at
// any shard count — pinned by TestShardedMatchesSequential and the sharded
// golden-figure run.

package gpu

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"g10sim/internal/flownet"
	"g10sim/internal/units"
)

// shardSpan is one shard's contiguous tenant index range [lo, hi).
type shardSpan struct{ lo, hi int }

// planShards partitions n tenants into at most k contiguous, balanced
// shards. All tenants currently share one resource-reachability class —
// every migration route can touch the shared SSD channels and host DRAM bus
// — so balancing tenant counts is the whole plan; contiguity is what makes
// the per-shard wake order concatenate into the global index order.
func planShards(n, k int) []shardSpan {
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	spans := make([]shardSpan, 0, k)
	for s := 0; s < k; s++ {
		lo, hi := s*n/k, (s+1)*n/k
		if lo < hi {
			spans = append(spans, shardSpan{lo, hi})
		}
	}
	return spans
}

// shard is one shard's scheduler state. ready and execH are touched only by
// this shard's crew task or by the coordinator between barriers, never
// both at once.
type shard struct {
	span  shardSpan
	ready *wakeSet
	execH execHeap
	wake  []int
	steps int64
	// next is the shard's earliest private event, filled at the horizon
	// fold.
	next units.Time
}

// shardCrew runs one phase function over every shard on a fixed pool of
// goroutines, with a barrier at the end of each phase. The phase field is
// published by the channel sends and joined by the WaitGroup, so phases
// are totally ordered with the coordinator's sequential work.
type shardCrew struct {
	shards []shard
	work   chan int
	wg     sync.WaitGroup
	phase  func(*shard)
}

func newShardCrew(shards []shard, workers int) *shardCrew {
	c := &shardCrew{shards: shards, work: make(chan int, len(shards))}
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		go func() {
			for i := range c.work {
				c.phase(&c.shards[i])
				c.wg.Done()
			}
		}()
	}
	return c
}

// run executes phase over every shard and returns after all finished.
func (c *shardCrew) run(phase func(*shard)) {
	c.phase = phase
	c.wg.Add(len(c.shards))
	for i := range c.shards {
		c.work <- i
	}
	c.wg.Wait()
}

func (c *shardCrew) stop() { close(c.work) }

// driveSharded schedules the tenants like driveEvents, with per-shard
// bookkeeping advanced concurrently and all shared-state mutation
// serialized at the barrier in global index order.
func driveSharded(net *flownet.Network, tenants []*runner, nshards int, faults *faultClock, steps *int64) error {
	n := len(tenants)
	spans := planShards(n, nshards)
	if len(spans) <= 1 {
		return driveEvents(net, tenants, faults, steps)
	}
	// Rate re-derivations inside the shared advance may fill independent
	// flow components concurrently on the same budget.
	net.SetWorkers(len(spans))

	shards := make([]shard, len(spans))
	shardOf := make([]int, n)
	for si, sp := range spans {
		shards[si] = shard{span: sp, ready: newWakeSet(n)}
		for i := sp.lo; i < sp.hi; i++ {
			shardOf[i] = si
		}
	}
	queued := newWakeSet(n)

	// Jobs arriving mid-simulation: one global (arrival, index)-ordered
	// queue, admitted on the coordinator — admission seeds tensors into the
	// shared pool and array, so its order is part of the bit-identity
	// contract.
	var arrivals []int
	for i, r := range tenants {
		if r.arrival > 0 {
			r.phase = phasePending
			arrivals = append(arrivals, i)
		}
	}
	sort.Slice(arrivals, func(i, j int) bool {
		a, b := tenants[arrivals[i]], tenants[arrivals[j]]
		if a.arrival != b.arrival {
			return a.arrival < b.arrival
		}
		return a.idx < b.idx
	})
	arrCursor := 0

	// Host-pool grants mark the owner ready in its own shard; grants fire
	// only during coordinator-sequential phases (steps and delivery).
	for _, r := range tenants {
		r := r
		s := &shards[shardOf[r.idx]]
		r.onHostWake = func() {
			r.hostSubscribed = false
			s.ready.set(r.idx)
		}
	}

	remaining := n
	for _, r := range tenants {
		if r.phase == phasePending {
			continue
		}
		if err := r.start(); err != nil {
			return err
		}
		shards[shardOf[r.idx]].ready.set(r.idx)
	}

	workers := len(spans)
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	crew := newShardCrew(shards, workers)
	defer crew.stop()

	for {
		// Parallel phase: each shard drains its ready set into its wake
		// buffer (ascending indices within the shard).
		crew.run(func(s *shard) { s.wake = s.ready.drain(s.wake[:0]) })

		// Step round on the coordinator, shards in order — the global
		// ascending index order driveEvents steps in.
		for si := range shards {
			s := &shards[si]
			for _, i := range s.wake {
				r := tenants[i]
				if r.phase == phaseDone || r.phase == phasePending || r.phase == phaseCrashed {
					continue
				}
				s.steps++
				r.step()
				if r.err != nil {
					return r.err
				}
				switch r.phase {
				case phaseDone:
					remaining--
				case phaseExec:
					if !r.inExecHeap {
						r.inExecHeap = true
						s.execH.push(execEntry{at: r.execEnd, idx: i})
					}
				}
				if r.queuedWork() {
					queued.set(i)
				} else {
					queued.clear(i)
				}
			}
		}
		again := false
		for si := range shards {
			if shards[si].ready.any() {
				again = true
				break
			}
		}
		if again {
			continue
		}
		if remaining == 0 {
			break
		}

		// Conservative horizon: fold each shard's earliest private event
		// with the next arrival and the network's next event. The union of
		// the shard heaps is driveEvents' global heap, so the minimum is
		// identical.
		next := units.Forever
		for si := range shards {
			s := &shards[si]
			s.next = units.Forever
			if len(s.execH) > 0 {
				s.next = s.execH[0].at
			}
			next = units.MinTime(next, s.next)
		}
		if arrCursor < len(arrivals) {
			next = units.MinTime(next, tenants[arrivals[arrCursor]].arrival)
		}
		next = units.MinTime(next, units.MinTime(net.NextEvent(), faults.next()))
		if next == units.Forever {
			return fmt.Errorf("gpu: cluster stalled with no pending events")
		}

		// Shared advance on the coordinator: delivery routes each
		// completion's owner to its shard's ready set; queued metadata
		// re-dispatches in global index order, as in driveEvents.
		net.AdvanceEventwise(next, func(done []*flownet.Flow) {
			for _, f := range done {
				deliver(f)
				if o := f.Owner; o >= 0 {
					shards[shardOf[o]].ready.set(o)
					if tenants[o].queuedWork() {
						queued.set(o)
					} else {
						queued.clear(o)
					}
				}
			}
			queued.forEach(func(i int) {
				r := tenants[i]
				r.redispatch()
				if !r.queuedWork() {
					queued.clear(i)
				}
			})
		})
		now := net.Now()

		// Parallel phase: each shard pops its due kernel-end entries.
		crew.run(func(s *shard) {
			for len(s.execH) > 0 && s.execH[0].at <= now {
				e := s.execH.pop()
				tenants[e.idx].inExecHeap = false
				s.ready.set(e.idx)
			}
		})
		// Fault pump point, on the coordinator between barriers — the same
		// position as driveEvents (post-advance, post-pop, pre-arrival), so
		// faulted runs stay byte-identical at any shard count.
		if faults != nil {
			finished, err := faults.apply(now, func(i int) { shards[shardOf[i]].ready.set(i) })
			if err != nil {
				return err
			}
			remaining -= finished
		}
		for arrCursor < len(arrivals) && tenants[arrivals[arrCursor]].arrival <= now {
			r := tenants[arrivals[arrCursor]]
			arrCursor++
			if err := r.admit(); err != nil {
				return err
			}
			shards[shardOf[r.idx]].ready.set(r.idx)
		}
	}

	// Deterministic merge: fold per-shard step counters in shard order.
	for si := range shards {
		*steps += shards[si].steps
	}
	return nil
}
