package main

import (
	"math"
	"slices"
	"sync"
	"time"
)

// Host normalization. On a shared 2-vCPU VM one serial solve swings
// between 340 and 630 ms within seconds while process CPU time tracks
// wall time, so no raw wall-clock figure repeats from run to run. Every
// timed sample is therefore bracketed by a short, fixed, compute-only
// reference loop and divided by the mean of its two brackets: a host
// slowdown stretches the sample and its brackets alike and cancels, while
// a slowdown of the code under test does not, because the reference loop
// never runs it.

// refNominalMs is the nominal reference time: a normalized timing reads
// as if both brackets of its sample had taken exactly this long.
const refNominalMs = 5.0

// The reference loop sweeps refLen element pairs (64 KiB, L2-resident)
// refPasses times: about refNominalMs on an idle 2-vCPU x86-64 VM.
const (
	refLen    = 4096
	refPasses = 100
)

var (
	refR2, refRR [refLen]float64
	refSink      float64 // keeps the reference work observable
)

func init() {
	for i := range refR2 {
		refR2[i] = 1 + float64(i%97)*0.37
		refRR[i] = 1 + float64(i%89)*0.11
	}
}

// refWork is the reference work: the sqrt and exp of the f_GB pair
// kernel per element, with no allocation and no memory traffic beyond
// L2. It calls nothing in the library, so no code change can move it.
func refWork() float64 {
	s := 0.0
	for p := 0; p < refPasses; p++ {
		for i, r2 := range refR2 {
			rr := refRR[i]
			s += 1 / math.Sqrt(r2+rr*math.Exp(-r2/(4*rr)))
		}
	}
	return s
}

// refLoop runs the reference work on as many goroutines as the timed
// work keeps busy, so a bracket measures every vCPU the sample runs on.
func refLoop(threads int) func() {
	return func() {
		sums := make([]float64, threads)
		var wg sync.WaitGroup
		for t := range sums {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sums[t] = refWork()
			}()
		}
		wg.Wait()
		for _, s := range sums {
			refSink += s
		}
	}
}

// sample is one timed operation.
type sample struct {
	rawMs  float64 // its wall time
	refMs  float64 // the mean of its two reference brackets
	normMs float64 // rawMs at the nominal reference time
}

// factor converts a raw time measured inside the sample into its
// normalized value.
func (s sample) factor() float64 { return refNominalMs / s.refMs }

// normalize scales a raw time by the host speed its brackets measured.
func normalize(rawMs, refBeforeMs, refAfterMs float64) sample {
	ref := (refBeforeMs + refAfterMs) / 2
	return sample{rawMs: rawMs, refMs: ref, normMs: rawMs * refNominalMs / ref}
}

// normalizer times operations between reference brackets. Consecutive
// samples share the bracket between them.
type normalizer struct {
	clock  func() time.Duration // monotonic
	ref    func()
	lastMs float64 // the latest bracket; 0 until the first sample
}

// newNormalizer brackets samples that keep threads goroutines busy.
func newNormalizer(threads int) *normalizer {
	start := time.Now()
	return &normalizer{clock: func() time.Duration { return time.Since(start) }, ref: refLoop(threads)}
}

func (n *normalizer) bracket() float64 {
	t := n.clock()
	n.ref()
	return ms(n.clock() - t)
}

// time runs fn between two reference brackets.
func (n *normalizer) time(fn func()) sample {
	if n.lastMs == 0 {
		n.lastMs = n.bracket()
	}
	before := n.lastMs
	t := n.clock()
	fn()
	raw := ms(n.clock() - t)
	n.lastMs = n.bracket()
	return normalize(raw, before, n.lastMs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics; 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// midMean is the interquartile mean: the mean of the middle half of xs,
// as robust to a stray sample as the median but steadier.
func midMean(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	t := 0.0
	for _, x := range mid {
		t += x
	}
	return t / float64(len(mid))
}

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
