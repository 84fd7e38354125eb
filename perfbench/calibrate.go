package main

import (
	"container/heap"
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// calibrate times a fixed workload written here, independent of the
// simulator but shaped like it: small-object allocation (so the concurrent
// GC runs), pointer chasing, hashing, sorting, a binary heap and float
// arithmetic over a working set of a few MB. Its time tracks how fast the
// host runs at the moment, not how fast the simulator is.
func calibrate() float64 {
	type node struct {
		val  float64
		next *node
	}
	start := time.Now()
	rng := rand.New(rand.NewPCG(7, 7))
	m := make(map[int]*node, 1<<14)
	var h floatHeap
	acc := 0.0
	for round := 0; round < 4; round++ {
		xs := make([]int, 1<<16)
		var list *node
		for i := range xs {
			xs[i] = rng.IntN(1 << 30)
			list = &node{val: float64(i), next: list}
			m[xs[i]&0x3fff] = list
		}
		sort.Ints(xs)
		for i := range 1 << 14 {
			heap.Push(&h, float64(xs[i*4]))
			if h.Len() > 1<<10 {
				acc += math.Sqrt(heap.Pop(&h).(float64))
			}
		}
		for n := list; n != nil; n = n.next {
			acc += n.val
		}
	}
	calSink = acc + float64(len(m))
	return since(start)
}

var calSink float64

type floatHeap []float64

func (h floatHeap) Len() int           { return len(h) }
func (h floatHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h floatHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *floatHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *floatHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
