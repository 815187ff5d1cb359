package main

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"time"
)

// refNominalMs is how long refLoop takes on the nominal host, about what
// it takes on one core of a 2-core cloud VM. The end-to-end times a run
// reports are scaled to that host (see nominal).
const refNominalMs = 11.0

// spacer is the allocation settle leaves between timed calls.
var spacer []byte

// settle prepares the heap for a timed call: it collects it, then
// allocates a spacer of random size, 64 KiB to 4 MiB, which the call's
// own allocations then lie past. With the collector off between calls,
// each call would otherwise reuse the same memory as the last, and how
// fast a call runs depends on where its data lies: the same program's
// VM run differed by a tenth from one process to the next, always the
// same within a process. With the spacer each call lies elsewhere, so
// that difference averages out within a run (to under 2% on the same
// runs).
func settle() {
	spacer = nil
	runtime.GC()
	spacer = make([]byte, (1+rand.IntN(64))<<16)
}

var refSink []uint64

// refLoop is the host-speed reference: map inserts, slice appends and a
// sort over about a megabyte, the allocation and pointer work a compile
// is made of, in the standard library alone, so that it runs at the same
// speed on every commit of the repository. It returns its wall time in
// milliseconds, settled like every timed call.
//
// The host has busy spells, seconds long, in which the same compile takes
// up to 1.7 times as long, and its speed differs from one process to the
// next. Over ten runs of compile-suite made one after another, the total
// compile time spread 0.067 (quartile distance over median) as measured,
// 0.060 scaled by the median of all this loop's timings in the run, and
// 0.054 scaled pass by pass; the geometric mean of the compile times
// 0.052, 0.050 and 0.029. Over 150 seconds of richards compiles, a loop
// that walked 10 MB of list tracked the compiles less well than this one.
func refLoop() float64 {
	settle()
	t0 := time.Now()
	m := make(map[uint64]uint64)
	var s []uint64
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 50000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x%25013] += x
		s = append(s, x)
	}
	slices.Sort(s)
	refSink = s[:len(m)%len(s)]
	return msSince(t0)
}

// nominal turns a time measured where refLoop took refMs into the time
// on the nominal host.
func nominal(ms, refMs float64) float64 { return ms * refNominalMs / refMs }
