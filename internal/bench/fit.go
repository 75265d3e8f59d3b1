package bench

import (
	"fmt"
	"math"
)

// Measurement is one point of a scaling sweep: problem size against cost.
// Work is a machine-independent cost (search nodes, answer counts) used
// when wall-clock noise would obscure the trend.
type Measurement struct {
	N    int
	Secs float64
	Work float64
}

// Series is a scaling sweep ordered by N.
type Series []Measurement

// GrowthKind labels the better-fitting growth model.
type GrowthKind string

// The growth classifications the harness distinguishes.
const (
	Polynomial  GrowthKind = "polynomial"
	Exponential GrowthKind = "exponential"
	Flat        GrowthKind = "flat"
)

// Fit is the outcome of growth classification.
type Fit struct {
	Kind GrowthKind
	// Degree is the fitted exponent for polynomial growth (t ~ n^Degree).
	Degree float64
	// Base is the fitted per-unit factor for exponential growth (t ~ Base^n).
	Base float64
	// R2Poly and R2Exp report each model's goodness of fit.
	R2Poly, R2Exp float64
}

// String renders the fit compactly.
func (f Fit) String() string {
	switch f.Kind {
	case Polynomial:
		return fmt.Sprintf("polynomial (deg≈%.1f)", f.Degree)
	case Exponential:
		return fmt.Sprintf("exponential (base≈%.2f)", f.Base)
	default:
		return "flat"
	}
}

// Classify fits log-cost against log-n (polynomial) and against n
// (exponential) by least squares on the Work column (falling back to Secs
// when Work is zero), and picks the model with the higher R². Series with
// under three points or no growth classify as Flat.
func Classify(s Series) Fit {
	xsPoly, xsExp, ys := make([]float64, 0, len(s)), make([]float64, 0, len(s)), make([]float64, 0, len(s))
	for _, m := range s {
		cost := m.Work
		if cost <= 0 {
			cost = m.Secs
		}
		if cost <= 0 || m.N <= 0 {
			continue
		}
		xsPoly = append(xsPoly, math.Log(float64(m.N)))
		xsExp = append(xsExp, float64(m.N))
		ys = append(ys, math.Log(cost))
	}
	if len(ys) < 3 {
		return Fit{Kind: Flat}
	}
	spread := maxOf(ys) - minOf(ys)
	if spread < 0.2 {
		return Fit{Kind: Flat}
	}
	bPoly, r2Poly := linfit(xsPoly, ys)
	bExp, r2Exp := linfit(xsExp, ys)
	f := Fit{Degree: bPoly, Base: math.Exp(bExp), R2Poly: r2Poly, R2Exp: r2Exp}
	if r2Exp > r2Poly {
		f.Kind = Exponential
	} else {
		f.Kind = Polynomial
	}
	// A per-unit factor this close to 1 is polynomial noise, not doubling
	// behaviour: exponential growth in these experiments multiplies cost per
	// step, not per mille. (This keeps timer jitter on fast FP cells from
	// winning the R² tie with base ≈ 1.00.)
	if f.Kind == Exponential && f.Base < 1.04 {
		f.Kind = Polynomial
	}
	return f
}

// linfit returns the least-squares slope of y on x and the fit's R².
func linfit(xs, ys []float64) (slope, r2 float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0
	}
	slope = (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	var ssRes, ssTot float64
	meanY := sy / n
	for i := range xs {
		pred := intercept + slope*xs[i]
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	if ssTot == 0 {
		return slope, 1
	}
	return slope, 1 - ssRes/ssTot
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}
