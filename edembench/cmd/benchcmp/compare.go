package main

import (
	"fmt"
	"math"
	"sort"
)

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) gives them (the default "exclusive"
// method), so spreads here match the ones the acceptance check takes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

type verdict string

const (
	verdictGain       verdict = "GAIN"
	verdictBetter     verdict = "better (every change run beats every parent run)"
	verdictWithin     verdict = "within bound"
	verdictRegression verdict = "REGRESSION"
	verdictUnresolved verdict = "unresolved (spread exceeds bound)"
)

// row is one workload × metric comparison.
type row struct {
	m                   metricSpec
	pMed, pQ1, pQ3      float64
	cMed, cQ1, cQ3      float64
	wins, losses, pairs int
	worse               float64 // change's median worse than the parent's, as a share of the parent's
	pSpread, cSpread    float64
	verdict             verdict
}

// compare applies the claim and regression rules to paired runs:
// parent[i] and change[i] ran with the same seed.
func compare(m metricSpec, parent, change []float64) row {
	r := row{m: m, pairs: len(parent)}
	r.pQ1, r.pMed, r.pQ3 = quartiles(parent)
	r.cQ1, r.cMed, r.cQ3 = quartiles(change)
	lower := m.Better == "lower"
	better := func(c, p float64) bool {
		if lower {
			return c < p
		}
		return c > p
	}
	for i := range parent {
		switch {
		case better(change[i], parent[i]):
			r.wins++
		case better(parent[i], change[i]):
			r.losses++
		}
	}
	r.worse = (r.cMed - r.pMed) / math.Abs(r.pMed)
	if !lower {
		r.worse = -r.worse
	}
	r.pSpread, r.cSpread = spread(parent), spread(change)

	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	switch {
	case 10*r.wins >= 9*r.pairs && math.Abs(r.cMed-r.pMed) > r.pQ3-r.pQ1 && better(r.cMed, r.pMed):
		r.verdict = verdictGain
	case allBetter:
		r.verdict = verdictBetter
	case r.pSpread > m.Bound || r.cSpread > m.Bound:
		r.verdict = verdictUnresolved
	case r.worse > m.Bound:
		r.verdict = verdictRegression
	default:
		r.verdict = verdictWithin
	}
	return r
}

func (r row) String() string {
	return fmt.Sprintf("%-12s parent %s  change %s  change/parent %.4f (base: parent median %.6g %s)  wins %d/%d, losses %d  worse by %+.2f%% (bound %.0f%%)  -> %s",
		r.m.Name, fmtQ(r.pMed, r.pQ1, r.pQ3), fmtQ(r.cMed, r.cQ1, r.cQ3),
		r.cMed/r.pMed, r.pMed, r.m.Unit, r.wins, r.pairs, r.losses,
		100*r.worse, 100*r.m.Bound, r.verdict)
}

func fmtQ(med, q1, q3 float64) string {
	return fmt.Sprintf("%.6g [%.6g..%.6g]", med, q1, q3)
}

// spreadLine reports one tree's spread against the bound, and against
// a third of it (the margin a benchmark should keep).
func spreadLine(m metricSpec, xs []float64) string {
	q1, med, q3 := quartiles(xs)
	s := spread(xs)
	status := "ok"
	switch {
	case s > m.Bound:
		status = "exceeds bound"
	case s > m.Bound/3:
		status = "above a third of the bound"
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return fmt.Sprintf("%-12s median %.6g %s  IQR [%.6g..%.6g] = %.2f%% of median (bound %.0f%%): %s  runs %.6g",
		m.Name, med, m.Unit, q1, q3, 100*s, 100*m.Bound, status, sorted)
}
