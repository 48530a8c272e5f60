package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"geostat/internal/geom"
)

// The generators in this file are the synthetic stand-ins for the paper's
// real datasets. Each takes an explicit *rand.Rand so experiments are
// reproducible from a seed, and each produces a point process whose
// first/second-order structure matches the role the real dataset plays in
// the paper's narrative:
//
//   - UniformCSR:     complete spatial randomness — the null model of
//                     Definition 3's K-function envelopes.
//   - GaussianClusters: hotspot-bearing data (crime/COVID style, Figure 1).
//   - MaternCluster:  the classic clustered point process used in spatial
//                     statistics to exercise K-function tests (Figure 2).
//   - Dispersed:      inhibition process (points repel), the "dispersed"
//                     regime Figure 2 names.
//   - TwoWaveOutbreak: spatiotemporal two-wave epidemic (Figure 4's moving
//                     hotspots; Figure 6's clustered (s,t) region).

// UniformCSR returns n points uniformly distributed over box (a binomial
// point process — complete spatial randomness).
func UniformCSR(r *rand.Rand, n int, box geom.BBox) *Dataset {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = uniformPoint(r, box)
	}
	return FromPoints(pts)
}

// FillUniformCSR overwrites the equal-length columns xs, ys with points
// uniform over box, drawing from r exactly as UniformCSR does (x then y,
// point by point): for the same generator state the two produce the same
// pattern. It lets Monte-Carlo loops simulate into reused columns.
func FillUniformCSR(r *rand.Rand, box geom.BBox, xs, ys []float64) {
	for i := range xs {
		p := uniformPoint(r, box)
		xs[i], ys[i] = p.X, p.Y
	}
}

// Cluster describes one Gaussian hotspot for GaussianClusters.
type Cluster struct {
	Center geom.Point
	Sigma  float64 // standard deviation of the isotropic Gaussian
	Weight float64 // relative share of points in this cluster
}

// GaussianClusters returns n points drawn from a mixture of isotropic
// Gaussian clusters plus a uniform background over box. noise in [0,1] is
// the fraction of points in the background. Points falling outside box are
// resampled so the dataset stays within the study region.
func GaussianClusters(r *rand.Rand, n int, box geom.BBox, clusters []Cluster, noise float64) *Dataset {
	total := 0.0
	for _, c := range clusters {
		total += c.Weight
	}
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		if len(clusters) == 0 || r.Float64() < noise {
			pts = append(pts, uniformPoint(r, box))
			continue
		}
		// Pick a cluster proportionally to weight.
		u := r.Float64() * total
		ci := 0
		for ; ci < len(clusters)-1; ci++ {
			u -= clusters[ci].Weight
			if u < 0 {
				break
			}
		}
		c := clusters[ci]
		p := geom.Point{
			X: c.Center.X + r.NormFloat64()*c.Sigma,
			Y: c.Center.Y + r.NormFloat64()*c.Sigma,
		}
		if box.Contains(p) {
			pts = append(pts, p)
		}
	}
	return FromPoints(pts)
}

// MaternCluster returns a Matérn cluster process: parent points from a
// Poisson process with intensity kappa (per unit area), each parent
// producing Poisson(mu) children uniform in a disc of radius radius around
// it. Children outside box are discarded, so the realised count varies —
// use Resize to force an exact n when an experiment needs one.
func MaternCluster(r *rand.Rand, box geom.BBox, kappa, mu, radius float64) *Dataset {
	nParents := poisson(r, kappa*box.Area())
	var pts []geom.Point
	for i := 0; i < nParents; i++ {
		parent := uniformPoint(r, box)
		nChildren := poisson(r, mu)
		for j := 0; j < nChildren; j++ {
			// Uniform in disc: r = R·sqrt(u), θ uniform.
			rho := radius * math.Sqrt(r.Float64())
			theta := r.Float64() * 2 * math.Pi
			p := geom.Point{X: parent.X + rho*math.Cos(theta), Y: parent.Y + rho*math.Sin(theta)}
			if box.Contains(p) {
				pts = append(pts, p)
			}
		}
	}
	return FromPoints(pts)
}

// Dispersed returns n points from a simple sequential inhibition process:
// each new point is rejected if it falls within minDist of an existing
// point (up to maxTries attempts, after which the constraint is dropped so
// the generator always terminates with exactly n points).
func Dispersed(r *rand.Rand, n int, box geom.BBox, minDist float64) *Dataset {
	const maxTries = 200
	d2 := minDist * minDist
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		placed := false
		for try := 0; try < maxTries; try++ {
			cand := uniformPoint(r, box)
			ok := true
			for _, q := range pts {
				if cand.Dist2(q) < d2 {
					ok = false
					break
				}
			}
			if ok {
				pts = append(pts, cand)
				placed = true
				break
			}
		}
		if !placed {
			pts = append(pts, uniformPoint(r, box))
		}
	}
	return FromPoints(pts)
}

// Wave describes one outbreak wave for TwoWaveOutbreak: a spatial hotspot
// active around a central time.
type Wave struct {
	Center    geom.Point
	Sigma     float64 // spatial spread
	TimeMean  float64 // wave peak time
	TimeSigma float64 // temporal spread
	Weight    float64 // relative share of cases
}

// SpatioTemporalOutbreak returns n spatiotemporal events drawn from the
// given waves plus a uniform space-time background (noise fraction) over
// box × [t0, t1]. With two waves at different centers and times this
// reproduces the Figure 4 phenomenon: the spatial hotspot moves with time.
func SpatioTemporalOutbreak(r *rand.Rand, n int, box geom.BBox, t0, t1 float64, waves []Wave, noise float64) *Dataset {
	total := 0.0
	for _, w := range waves {
		total += w.Weight
	}
	pts := make([]geom.Point, 0, n)
	times := make([]float64, 0, n)
	for len(pts) < n {
		if len(waves) == 0 || r.Float64() < noise {
			pts = append(pts, uniformPoint(r, box))
			times = append(times, t0+r.Float64()*(t1-t0))
			continue
		}
		u := r.Float64() * total
		wi := 0
		for ; wi < len(waves)-1; wi++ {
			u -= waves[wi].Weight
			if u < 0 {
				break
			}
		}
		w := waves[wi]
		p := geom.Point{
			X: w.Center.X + r.NormFloat64()*w.Sigma,
			Y: w.Center.Y + r.NormFloat64()*w.Sigma,
		}
		t := w.TimeMean + r.NormFloat64()*w.TimeSigma
		if box.Contains(p) && t >= t0 && t <= t1 {
			pts = append(pts, p)
			times = append(times, t)
		}
	}
	d := FromPoints(pts)
	d.times = times
	return d
}

// WithField attaches a measured value to every point of d by sampling the
// given scalar field plus Gaussian observation noise — the input shape the
// interpolation (IDW/Kriging) and autocorrelation (Moran/Getis-Ord) tools
// need. It returns d for chaining.
func WithField(r *rand.Rand, d *Dataset, field func(geom.Point) float64, noiseSigma float64) *Dataset {
	values := make([]float64, d.N())
	for i := range values {
		values[i] = field(d.Point(i)) + r.NormFloat64()*noiseSigma
	}
	d.values = values
	return d
}

// SampleFromIntensity draws n points from the (unnormalised, non-negative)
// intensity surface given as per-pixel values over spec: a pixel is chosen
// proportionally to its value, then the point is uniform within the pixel.
// This is the model-based bootstrap behind inhomogeneous null models: fit
// a KDV to observed events, then simulate "same first-order intensity, no
// interaction" datasets from it.
func SampleFromIntensity(r *rand.Rand, spec geom.PixelGrid, values []float64, n int) (*Dataset, error) {
	if len(values) != spec.NumPixels() {
		return nil, fmt.Errorf("dataset: %d values for a %dx%d grid", len(values), spec.NX, spec.NY)
	}
	cum := make([]float64, len(values)+1)
	for i, v := range values {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("dataset: intensity value %d is %g (need finite, >= 0)", i, v)
		}
		cum[i+1] = cum[i] + v
	}
	total := cum[len(values)]
	if total <= 0 {
		return nil, fmt.Errorf("dataset: intensity surface sums to %g", total)
	}
	cw, ch := spec.CellW(), spec.CellH()
	pts := make([]geom.Point, n)
	for i := range pts {
		target := r.Float64() * total
		// Binary search the cumulative mass for the pixel.
		lo, hi := 0, len(values)
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid+1] <= target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo >= len(values) {
			lo = len(values) - 1
		}
		ix, iy := lo%spec.NX, lo/spec.NX
		pts[i] = geom.Point{
			X: spec.Box.MinX + (float64(ix)+r.Float64())*cw,
			Y: spec.Box.MinY + (float64(iy)+r.Float64())*ch,
		}
	}
	return FromPoints(pts), nil
}

func uniformPoint(r *rand.Rand, box geom.BBox) geom.Point {
	return geom.Point{
		X: box.MinX + r.Float64()*box.Width(),
		Y: box.MinY + r.Float64()*box.Height(),
	}
}

// poisson draws from a Poisson distribution with the given mean using
// Knuth's product method for small means and a normal approximation for
// large ones (mean > 30), which is ample for generator use.
func poisson(r *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := mean + math.Sqrt(mean)*r.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
