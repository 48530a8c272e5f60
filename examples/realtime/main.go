// Realtime monitoring — the streaming-KDE use case (§2.2 cites interactive
// visualization of streaming data): events arrive over time and a sliding
// 24-"hour" hotspot map updates incrementally, each frame costing only the
// footprints of the events entering and leaving the window, not a full
// recomputation. The demo also extracts half-peak hotspot contours per
// frame and exports the final frame to GeoJSON.
package main

import (
	"fmt"
	"log"

	"geostat"
)

func main() {
	rng := geostat.NewRand(99)
	region := geostat.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}

	// A week of events (time unit: hours): the hotspot migrates across town
	// in three phases.
	feed := geostat.SpatioTemporalOutbreak(rng, 20000, region, 0, 168, []geostat.OutbreakWave{
		{Center: geostat.Point{X: 20, Y: 20}, Sigma: 6, TimeMean: 24, TimeSigma: 12, Weight: 1},
		{Center: geostat.Point{X: 50, Y: 70}, Sigma: 6, TimeMean: 84, TimeSigma: 12, Weight: 1},
		{Center: geostat.Point{X: 85, Y: 30}, Sigma: 6, TimeMean: 144, TimeSigma: 12, Weight: 1},
	}, 0.2)

	grid := geostat.NewPixelGrid(region, 128, 128)
	window, err := geostat.NewKDVWindowStream(
		geostat.MustKernel(geostat.Quartic, 7), grid,
		feed, 24, // 24-hour sliding window over feed.Times()
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("hour  live events  hotspot (x, y)  peak  hotspot area (≥½ peak)")
	var lastFrame *geostat.Heatmap
	for hour := 24.0; hour <= 168; hour += 24 {
		window.Advance(hour)
		frame := window.Snapshot()
		ix, iy, peak := frame.ArgMax()
		c := grid.Center(ix, iy)
		area := frame.AreaAbove(peak / 2)
		fmt.Printf("%4.0f  %11d  (%4.1f, %4.1f)  %6.1f  %.0f km²\n",
			hour, window.Live(), c.X, c.Y, peak, area)
		lastFrame = frame
	}

	// Export the final frame: heatmap PNG + hotspot outline GeoJSON.
	if err := lastFrame.WritePNGFile("realtime_final.png", geostat.HeatRamp); err != nil {
		log.Fatal(err)
	}
	_, _, peak := lastFrame.ArgMax()
	fc := geostat.NewGeoJSON()
	fc.AddBBox(region, map[string]any{"role": "study-area"})
	fc.AddSegments(lastFrame.Contour(peak/2), map[string]any{"level": "half-peak"})
	fc.AddGridCells(lastFrame, peak*0.75, "density")
	if err := fc.WriteFile("realtime_hotspots.geojson"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote realtime_final.png and realtime_hotspots.geojson")
}
