package main

import (
	"math"
	"math/bits"
	"runtime/metrics"
	"syscall"
)

// subBits sets the histogram resolution: 2^subBits buckets per power of
// two keep every recorded value within 0.8 % of its bucket's bounds.
const subBits = 7

// minBeyond is how many samples must lie above a percentile before it is
// reported; with fewer the tail is a handful of outliers, not a shape.
const minBeyond = 10

// hist is a log-linear histogram of non-negative integer samples
// (nanoseconds, bits, ...). Recording is one array increment, so a
// measurement loop can keep millions of samples in fixed memory.
type hist struct {
	counts [64 << subBits]uint64
	n      uint64
}

// bucketOf maps v to its bucket: exact below 2^(subBits+1), then the
// top subBits+1 significant bits.
func bucketOf(v uint64) int {
	if v < 2<<subBits {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1
	return (shift+1)<<subBits | int(v>>shift)&(1<<subBits-1)
}

// bucketBounds returns the lowest value of bucket b and its width.
func bucketBounds(b int) (lo, width float64) {
	if b < 2<<subBits {
		return float64(b), 1
	}
	shift := b>>subBits - 1
	m := uint64(b&(1<<subBits-1) | 1<<subBits)
	return float64(m << shift), float64(uint64(1) << shift)
}

func (h *hist) record(v uint64) {
	h.counts[bucketOf(v)]++
	h.n++
}

// quantile returns the nearest-rank q-quantile, interpolated by rank
// within its bucket. ok is false unless at least minBeyond samples lie
// above it: such a percentile is omitted, not reported.
func (h *hist) quantile(q float64) (v float64, ok bool) {
	if h.n == 0 {
		return 0, false
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if h.n-rank < minBeyond {
		return 0, false
	}
	var cum uint64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, w := bucketBounds(b)
			return lo + w*(float64(rank-cum)-0.5)/float64(c), true
		}
		cum += c
	}
	return 0, false
}

// mean accumulates a running mean.
type mean struct {
	n   uint64
	sum float64
}

func (m *mean) add(v float64) { m.n++; m.sum += v }

func (m *mean) value() float64 { return ratio(m.sum, float64(m.n)) }

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapGauge reads the heap's object bytes, live and not yet swept.
type heapGauge struct {
	s []metrics.Sample
}

func newHeapGauge() *heapGauge {
	return &heapGauge{s: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (g *heapGauge) read() uint64 {
	metrics.Read(g.s)
	return g.s[0].Value.Uint64()
}

// allocCounter reads the runtime's cumulative heap allocation count.
type allocCounter struct{ s []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (a *allocCounter) read() uint64 {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64()
}
