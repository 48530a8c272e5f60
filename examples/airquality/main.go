// Air quality interpolation — the ecology workflow of the paper's
// introduction: sparse sensor readings of a pollution field interpolated
// with IDW and ordinary kriging, cross-validated against each other, and
// screened for spatial structure with Moran's I and General G (it only
// makes sense to interpolate an autocorrelated field).
package main

import (
	"fmt"
	"log"
	"math"

	"geostat"
)

func main() {
	rng := geostat.NewRand(5)
	region := geostat.BBox{MinX: 0, MinY: 0, MaxX: 80, MaxY: 60}

	// True pollution field: two emission plumes over a baseline.
	truth := func(p geostat.Point) float64 {
		plume1 := 60 * math.Exp(-p.Dist2(geostat.Point{X: 20, Y: 40})/(2*8*8))
		plume2 := 40 * math.Exp(-p.Dist2(geostat.Point{X: 60, Y: 20})/(2*12*12))
		return 15 + plume1 + plume2
	}
	// 400 sensors at random sites, each with measurement noise.
	sensors := geostat.UniformCSR(rng, 400, region)
	geostat.WithField(rng, sensors, truth, 1.5)
	fmt.Printf("%d sensors over a %gx%g km region\n", sensors.N(), region.Width(), region.Height())

	// Step 1 — is the field spatially structured at all?
	w, err := geostat.KNNWeightsDataset(sensors, 8, -1)
	if err != nil {
		log.Fatal(err)
	}
	mi, err := geostat.MoranIOpt(sensors.Values(), w, geostat.MoranOptions{Perms: 199, Seed: rng.Int63(), Workers: -1})
	if err != nil {
		log.Fatal(err)
	}
	gg, err := geostat.GeneralGOpt(sensors.Values(), w, geostat.GetisOrdOptions{Perms: 199, Seed: 5, Workers: -1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Moran's I = %.3f (z = %.1f, p = %.3f) — positive autocorrelation\n", mi.I, mi.Z, mi.P)
	fmt.Printf("General G: z = %.1f (p = %.3f) — high readings cluster (the plumes)\n", gg.Z, gg.P)
	if mi.P > 0.05 {
		fmt.Println("no spatial structure; interpolation would be meaningless. stopping.")
		return
	}

	grid := geostat.NewPixelGrid(region, 160, 120)

	// Step 2 — IDW surface.
	idwSurf, err := geostat.IDWKNN(sensors, geostat.IDWOptions{Grid: grid, Power: 2, Workers: -1}, 12)
	if err != nil {
		log.Fatal(err)
	}

	// Step 3 — kriging: fit a variogram, then interpolate.
	bins, err := geostat.EmpiricalVariogram(sensors, 40, 16)
	if err != nil {
		log.Fatal(err)
	}
	vg, err := geostat.FitVariogram(bins, geostat.SphericalModel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted %s variogram: nugget %.1f, sill %.1f, range %.1f\n",
		vg.Model, vg.Nugget, vg.Sill, vg.Range)
	krSurf, err := geostat.Krige(sensors, geostat.KrigingOptions{
		Grid: grid, Variogram: vg, Neighbors: 16, Workers: -1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Step 4 — model selection WITHOUT ground truth: leave-one-out
	// cross-validation ranks the interpolators on the samples alone.
	if cvIDW, err := geostat.IDWLOOCV(sensors, 2, 12); err == nil {
		fmt.Printf("LOOCV  IDW(p=2, k=12):    RMSE %.2f  MAE %.2f\n", cvIDW.RMSE, cvIDW.MAE)
	}
	if cvKr, err := geostat.KrigeLOOCVWorkers(sensors, vg, 16, -1); err == nil {
		fmt.Printf("LOOCV  kriging(k=16):     RMSE %.2f  MAE %.2f\n", cvKr.RMSE, cvKr.MAE)
	}

	// Step 5 — compare both interpolants to the (normally unknown) truth.
	var idwErr, krErr float64
	for iy := 0; iy < grid.NY; iy++ {
		for ix := 0; ix < grid.NX; ix++ {
			want := truth(grid.Center(ix, iy))
			idwErr += math.Abs(idwSurf.At(ix, iy) - want)
			krErr += math.Abs(krSurf.At(ix, iy) - want)
		}
	}
	n := float64(grid.NumPixels())
	fmt.Printf("mean abs error vs truth: IDW %.2f, kriging %.2f (field ranges 15-75)\n",
		idwErr/n, krErr/n)

	if err := idwSurf.WritePNGFile("airquality_idw.png", geostat.HeatRamp); err != nil {
		log.Fatal(err)
	}
	if err := krSurf.WritePNGFile("airquality_kriging.png", geostat.HeatRamp); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote airquality_idw.png and airquality_kriging.png")
}
