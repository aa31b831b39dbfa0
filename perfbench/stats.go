package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so one outlier cannot set it.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs (which it sorts) and
// whether the sample supports it under the percentile rule. An empty
// sample yields (0, false).
func quantile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	rank = max(1, min(rank, n))
	return xs[rank-1], n-rank >= minBeyond
}

// median is the 0.5 quantile without the support flag.
func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio divides, reading 0/0 as 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rungStep is the ladder's geometric step: consecutive rates differ by 5%.
const rungStep = 1.05

// rungRate is the offered rate of rung k of the ladder anchored at base.
func rungRate(base float64, k int) float64 { return base * math.Pow(rungStep, float64(k)) }

// probeVerdict is what one ladder rung measured.
type probeVerdict struct {
	P99Ms       float64 // submit→terminal p99 at the rung's rate
	Supported   bool    // the sample supports p99 under the percentile rule
	Sheds       int     // ErrSaturated refusals during the rung
	Failed      int     // jobs that did not end done
	BacklogHead float64 // mean in-flight jobs over the first third of submissions
	BacklogTail float64 // mean in-flight jobs over the last third
}

// backlogGrowth is how much the mean in-flight count may rise between the
// first and the last third of a rung before the backlog counts as growing.
const backlogGrowth = 1.0

// passes is the ladder's verdict for one rung: p99 within the limit on a
// sample that supports p99, no sheds, no failures, and no growing backlog.
func (v probeVerdict) passes(limitMs float64) bool {
	return v.Supported && v.P99Ms <= limitMs && v.Sheds == 0 && v.Failed == 0 &&
		v.BacklogTail <= v.BacklogHead+backlogGrowth
}

// searchLadder finds the highest passing rung in (lo, hi) by bisection,
// given that rung lo passes and rung hi fails; the verdict is assumed
// monotone in the rate. probe reports whether rung k passes. It returns
// the highest passing rung found and the rungs probed, in order.
func searchLadder(lo, hi int, probe func(k int) bool) (best int, probed []int) {
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		probed = append(probed, mid)
		if probe(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probed
}
