// Package kriging implements ordinary kriging (Table 1 of the paper,
// [92, 101, 112]): geostatistical interpolation in two stages — fit a
// variogram model to the empirical semivariances of the samples, then
// solve, per pixel, the ordinary-kriging system over a local neighbourhood
// of the k nearest samples (the standard way to make kriging tractable,
// and this package's answer to §2.4's "kriging is very time-consuming").
package kriging

import (
	"fmt"
	"math"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	gridindex "geostat/internal/index/grid"
)

// Model enumerates the supported variogram models.
type Model int

const (
	// Spherical: γ(h) = nugget + sill·(1.5·h/r − 0.5·(h/r)³) for h < r,
	// nugget + sill beyond.
	Spherical Model = iota
	// Exponential: γ(h) = nugget + sill·(1 − exp(−3h/r)).
	Exponential
	// GaussianModel: γ(h) = nugget + sill·(1 − exp(−3h²/r²)).
	GaussianModel
)

// String returns the model name.
func (m Model) String() string {
	switch m {
	case Spherical:
		return "spherical"
	case Exponential:
		return "exponential"
	case GaussianModel:
		return "gaussian"
	}
	return fmt.Sprintf("kriging.Model(%d)", int(m))
}

// Variogram is a fitted variogram model γ(h).
type Variogram struct {
	Model  Model
	Nugget float64 // γ at h→0⁺
	Sill   float64 // partial sill: γ plateau − nugget
	Range  float64 // distance at which γ levels off
}

// Eval returns γ(h).
func (v Variogram) Eval(h float64) float64 {
	if h <= 0 {
		return 0
	}
	switch v.Model {
	case Spherical:
		if h >= v.Range {
			return v.Nugget + v.Sill
		}
		u := h / v.Range
		return v.Nugget + v.Sill*(1.5*u-0.5*u*u*u)
	case Exponential:
		return v.Nugget + v.Sill*(1-math.Exp(-3*h/v.Range))
	case GaussianModel:
		u := h / v.Range
		return v.Nugget + v.Sill*(1-math.Exp(-3*u*u))
	}
	return 0
}

// EmpiricalBin is one lag bin of the empirical semivariogram.
type EmpiricalBin struct {
	Lag   float64 // mean pair distance in the bin
	Gamma float64 // semivariance: mean of (z_i − z_j)²/2
	Pairs int     // pair count
}

// Empirical computes the empirical semivariogram up to maxLag in bins
// equal-width bins, enumerating close pairs through a grid index (not the
// O(n²) all-pairs loop).
func Empirical(d *dataset.Dataset, maxLag float64, bins int) ([]EmpiricalBin, error) {
	if !d.HasValues() {
		return nil, fmt.Errorf("kriging: dataset has no values")
	}
	if !(maxLag > 0) || bins < 1 {
		return nil, fmt.Errorf("kriging: need maxLag > 0 and bins >= 1 (got %g, %d)", maxLag, bins)
	}
	cols := d.Columns()
	vals := d.Values()
	idx := gridindex.NewColumns(cols.X, cols.Y, maxLag)
	width := maxLag / float64(bins)
	sumG := make([]float64, bins)
	sumLag := make([]float64, bins)
	counts := make([]int, bins)
	for i, zi := range vals {
		idx.ForEachInRange(geom.Point{X: cols.X[i], Y: cols.Y[i]}, maxLag, func(j int, d2 float64) {
			if j <= i { // each unordered pair once
				return
			}
			h := math.Sqrt(d2)
			b := int(h / width)
			if b >= bins {
				b = bins - 1
			}
			dz := zi - vals[j]
			sumG[b] += dz * dz / 2
			sumLag[b] += h
			counts[b]++
		})
	}
	out := make([]EmpiricalBin, 0, bins)
	for b := 0; b < bins; b++ {
		if counts[b] == 0 {
			continue
		}
		out = append(out, EmpiricalBin{
			Lag:   sumLag[b] / float64(counts[b]),
			Gamma: sumG[b] / float64(counts[b]),
			Pairs: counts[b],
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("kriging: no pairs within maxLag %g", maxLag)
	}
	return out, nil
}

// Fit fits a variogram model to empirical bins by pair-count-weighted
// least squares over a coarse-to-fine grid search on (nugget, sill, range).
// Grid search is robust (no derivatives, no divergence) and the parameter
// space is only 3-dimensional.
func Fit(bins []EmpiricalBin, model Model) (Variogram, error) {
	if len(bins) == 0 {
		return Variogram{}, fmt.Errorf("kriging: no empirical bins to fit")
	}
	maxGamma, maxLag := 0.0, 0.0
	for _, b := range bins {
		maxGamma = math.Max(maxGamma, b.Gamma)
		maxLag = math.Max(maxLag, b.Lag)
	}
	if maxGamma == 0 {
		// Constant field: flat variogram.
		return Variogram{Model: model, Nugget: 0, Sill: 0, Range: math.Max(maxLag, 1)}, nil
	}
	best := Variogram{Model: model}
	bestErr := math.Inf(1)
	// Three refinement passes around the best cell.
	nugLo, nugHi := 0.0, maxGamma
	sillLo, sillHi := 0.0, 2*maxGamma
	rngLo, rngHi := maxLag/20, 2*maxLag
	const steps = 12
	for pass := 0; pass < 3; pass++ {
		var bn, bs, br float64
		for in := 0; in <= steps; in++ {
			n := nugLo + (nugHi-nugLo)*float64(in)/steps
			for is := 0; is <= steps; is++ {
				s := sillLo + (sillHi-sillLo)*float64(is)/steps
				for ir := 0; ir <= steps; ir++ {
					r := rngLo + (rngHi-rngLo)*float64(ir)/steps
					if r <= 0 {
						continue
					}
					v := Variogram{Model: model, Nugget: n, Sill: s, Range: r}
					e := wssr(bins, v)
					if e < bestErr {
						bestErr = e
						best = v
						bn, bs, br = n, s, r
					}
				}
			}
		}
		// Shrink the search box around the winner.
		nugLo, nugHi = shrink(bn, nugLo, nugHi)
		sillLo, sillHi = shrink(bs, sillLo, sillHi)
		rngLo, rngHi = shrink(br, rngLo, rngHi)
	}
	return best, nil
}

func shrink(center, lo, hi float64) (float64, float64) {
	span := (hi - lo) / 4
	newLo := math.Max(lo, center-span)
	return newLo, math.Min(hi, center+span)
}

// wssr is the pair-count-weighted sum of squared residuals.
func wssr(bins []EmpiricalBin, v Variogram) float64 {
	e := 0.0
	for _, b := range bins {
		r := v.Eval(b.Lag) - b.Gamma
		e += float64(b.Pairs) * r * r
	}
	return e
}
