package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is the number of samples a reported tail percentile must have
// above it for the percentile to mean anything.
const minBeyond = 10

// tail is a tail percentile of a sample: Value is the Q-quantile of N
// samples, taken by nearest rank.
type tail struct {
	Q     float64
	Value float64
	N     int
}

// tailPercentile returns the percentile closest to, but not above, want
// that still has at least minBeyond samples beyond it. With fewer than
// 2·minBeyond samples no tail is supported and the median is returned.
func tailPercentile(xs []float64, want float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	q := math.Min(want, 1-float64(minBeyond)/float64(n))
	if q < 0.5 {
		return tail{Q: 0.5, Value: median(xs), N: n}
	}
	s := sorted(xs)
	// Nearest rank: the smallest value with at least q·n samples at or
	// below it, so n−rank samples lie beyond it.
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return tail{Q: q, Value: s[rank-1], N: n}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// interval is a half-open time interval [Start, End) in nanoseconds.
type interval struct{ Start, End int64 }

// selfTime is the part of parent that none of children covers: the span's
// duration minus the length of the union of its children, each clipped to
// the parent, so overlapping children are not subtracted twice.
func selfTime(parent interval, children []interval) int64 {
	var clipped []interval
	for _, c := range children {
		c.Start = max(c.Start, parent.Start)
		c.End = min(c.End, parent.End)
		if c.End > c.Start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	var covered int64
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.Start <= cur.End:
			cur.End = max(cur.End, c.End)
		default:
			covered += cur.End - cur.Start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.End - cur.Start
	}
	return parent.End - parent.Start - covered
}
