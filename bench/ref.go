package main

import (
	"sort"
	"strconv"
	"time"
)

// refEvery is how often, at most, the harness times the reference kernel
// between requests.
const refEvery = 250 * time.Millisecond

type refNode struct {
	key  string
	vals []int
	next *refNode
}

// refSink keeps the reference kernel's result live.
var refSink *refNode

// refKernel is the host-speed reference: a fixed Go workload — string
// formatting, map inserts, slice growth, a sort, and the garbage they
// leave for the collector — that uses nothing from the code under test.
// On a shared host the CPU time of a request swings by a quarter or more
// within seconds, and this kernel's time swings with it, so a request's
// time divided by the kernel's time just before it (a time in "ref"
// units) keeps mostly what the code under test changes.
func refKernel() time.Duration {
	start := time.Now()
	m := make(map[string]*refNode)
	var head *refNode
	x := uint64(88172645463325252)
	for i := 0; i < 1<<16; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := strconv.FormatUint(x%20000, 36)
		n := m[k]
		if n == nil {
			n = &refNode{key: k, next: head}
			head = n
			m[k] = n
		}
		n.vals = append(n.vals, int(x>>40))
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	refSink = head
	return time.Since(start)
}
