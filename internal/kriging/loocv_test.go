package kriging

import (
	"math"
	"testing"

	"geostat/internal/dataset"
	"geostat/internal/geom"
)

func TestLOOCVSmoothField(t *testing.T) {
	d := smoothField(10, 1000, 0.1)
	bins, err := Empirical(d, 40, 15)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Fit(bins, Spherical)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := LOOCVWorkers(d, v, 16, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cv.Residuals) != d.N() {
		t.Fatalf("residuals = %d", len(cv.Residuals))
	}
	// Field amplitude 10, noise 0.1: CV error should be close to the noise
	// floor.
	if cv.RMSE > 0.5 {
		t.Errorf("RMSE = %v", cv.RMSE)
	}
	if cv.MAE > cv.RMSE {
		t.Errorf("MAE %v > RMSE %v", cv.MAE, cv.RMSE)
	}
}

// LOOCV discriminates between a fitted variogram and a nonsense one.
func TestLOOCVDiscriminatesModels(t *testing.T) {
	d := smoothField(11, 600, 0.2)
	bins, err := Empirical(d, 40, 15)
	if err != nil {
		t.Fatal(err)
	}
	good, err := Fit(bins, Spherical)
	if err != nil {
		t.Fatal(err)
	}
	bad := Variogram{Model: GaussianModel, Nugget: 50, Sill: 0.001, Range: 0.5}
	cvGood, err := LOOCVWorkers(d, good, 12, -1)
	if err != nil {
		t.Fatal(err)
	}
	cvBad, err := LOOCVWorkers(d, bad, 12, -1)
	if err != nil {
		t.Fatal(err)
	}
	if cvGood.RMSE >= cvBad.RMSE {
		t.Errorf("fitted model RMSE %v should beat nonsense %v", cvGood.RMSE, cvBad.RMSE)
	}
}

func TestLOOCVValidation(t *testing.T) {
	d := smoothField(12, 50, 0.1)
	v := Variogram{Model: Spherical, Nugget: 0, Sill: 1, Range: 20}
	if _, err := LOOCVWorkers(dataset.FromPoints(d.Points()), v, 5, -1); err == nil {
		t.Error("valueless dataset accepted")
	}
	if _, err := LOOCVWorkers(d, Variogram{}, 5, -1); err == nil {
		t.Error("unfitted variogram accepted")
	}
	tiny := mkd(t, []geom.Point{{X: 1, Y: 1}, {X: 2, Y: 2}}, []float64{1, 2})
	if _, err := LOOCVWorkers(tiny, v, 5, -1); err == nil {
		t.Error("2 samples accepted")
	}
	// k=0 means all others.
	cv, err := LOOCVWorkers(d, v, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(cv.RMSE) {
		t.Error("NaN RMSE")
	}
}
