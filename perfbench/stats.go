package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// the samples: the smallest value with at least p% of the samples at or
// below it. It returns 0 for an empty sample.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := sortedCopy(samples)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank the nearest-rank method picks for the
// p-th percentile of n samples.
func nearestRank(n int, p float64) int {
	// The epsilon keeps float error (99.9*1000/100 = 999.0000000000001)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples ranked above the p-th percentile of n.
func beyond(n int, p float64) int { return n - nearestRank(n, p) }

// tailPercentiles are the candidates highestPercentile chooses from.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99}

// highestPercentile returns the highest candidate percentile that keeps
// at least minBeyond samples above it, and false when not even the
// median does.
func highestPercentile(n, minBeyond int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// passPercentile is the p-th percentile of latencies taken in
// completion order, passOps to a pass. When a pass alone keeps at least
// ten samples beyond the percentile, it is the median over whole passes
// of each pass's percentile, which a few slow passes do not move;
// otherwise it is the percentile of all samples.
func passPercentile(lat []float64, passOps int, p float64) float64 {
	passes := 0
	if passOps > 0 && beyond(passOps, p) >= 10 {
		passes = len(lat) / passOps
	}
	if passes < 3 {
		return percentile(lat, p)
	}
	per := make([]float64, passes)
	for i := range per {
		per[i] = percentile(lat[i*passOps:(i+1)*passOps], p)
	}
	return median(per)
}

// median returns the middle sample, or the mean of the two middle
// samples for an even count (0 for an empty sample).
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := sortedCopy(samples)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile by the
// same rule as Python's statistics.quantiles(data, n=4) (the default
// "exclusive" method), so spreads computed here and by a Python reader
// of the results agree. It needs at least two samples.
func quartiles(samples []float64) (q1, q2, q3 float64, ok bool) {
	ld := len(samples)
	if ld < 2 {
		return 0, 0, 0, false
	}
	s := sortedCopy(samples)
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2], true
}

// relSpread is the interquartile range as a share of the median: the
// run-to-run spread a bound has to cover.
func relSpread(samples []float64) float64 {
	q1, q2, q3, ok := quartiles(samples)
	if !ok || q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// errorRate is failed operations over attempted ones.
func errorRate(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// requestOK says whether one query response counts as a success: a 200
// whose output checks passed. Anything else — a refusal (429) included —
// is a failed operation.
func requestOK(status int, checked bool) bool {
	return status == 200 && checked
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
