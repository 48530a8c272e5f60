// Command nkdv computes a network kernel density surface: events snapped
// onto a road network, density per lixel, results as CSV (and optionally
// GeoJSON of the hottest segments for a GIS).
//
// Usage:
//
//	nkdv -network roads.csv -events events.csv -bandwidth 150 -lixel 10 \
//	     -out density.csv [-kernel quartic] [-equalsplit] [-geojson hot.geojson]
//
// roads.csv is an edge list (header x1,y1,x2,y2[,length]); events.csv has
// an x,y header. With no -network, a demo Manhattan grid is used.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"geostat"
)

func main() {
	var (
		networkPath = flag.String("network", "", "edge-list CSV of the road network (empty: demo 10x10 grid)")
		eventsPath  = flag.String("events", "", "events CSV (header x,y)")
		out         = flag.String("out", "nkdv.csv", "output CSV: one row per lixel")
		kernelArg   = flag.String("kernel", "quartic", "finite-support kernel name")
		bandwidth   = flag.Float64("bandwidth", 0, "network bandwidth (0 = 4x lixel length x 10)")
		lixel       = flag.Float64("lixel", 0, "lixel length (0 = total length / 2000)")
		equalSplit  = flag.Bool("equalsplit", false, "use Okabe's equal-split kernel (mass-conserving)")
		geoOut      = flag.String("geojson", "", "also write a GeoJSON of lixels above half the peak")
		workers     = flag.Int("workers", -1, "parallel workers")
	)
	flag.Parse()
	if *eventsPath == "" {
		fmt.Fprintln(os.Stderr, "nkdv: -events is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*networkPath, *eventsPath, *out, *kernelArg, *geoOut, *bandwidth, *lixel, *workers, *equalSplit); err != nil {
		fmt.Fprintf(os.Stderr, "nkdv: %v\n", err)
		os.Exit(1)
	}
}

func run(networkPath, eventsPath, out, kernelArg, geoOut string, bandwidth, lixel float64, workers int, equalSplit bool) error {
	var g *geostat.RoadNetwork
	var err error
	if networkPath == "" {
		g = geostat.GridNetwork(10, 10, 100, geostat.Point{})
		fmt.Println("no -network given: using a demo 10x10 grid (spacing 100)")
	} else if g, err = geostat.ReadNetworkCSVFile(networkPath); err != nil {
		return err
	}
	if _, components := g.Components(); components > 1 {
		fmt.Printf("warning: the network has %d disconnected components; events snap to the nearest edge regardless\n", components)
	}
	d, err := geostat.ReadCSVFile(eventsPath)
	if err != nil {
		return err
	}
	if d.N() == 0 {
		return fmt.Errorf("no events in %s", eventsPath)
	}
	if lixel == 0 {
		lixel = g.TotalLength() / 2000
	}
	if bandwidth == 0 {
		bandwidth = lixel * 40
	}
	kt, err := geostat.ParseKernel(kernelArg)
	if err != nil {
		return err
	}
	k, err := geostat.NewKernel(kt, bandwidth)
	if err != nil {
		return err
	}

	// Snap planar events onto the network.
	events := make([]geostat.NetworkPosition, d.N())
	worstSnap := 0.0
	for i := range events {
		pos, dist := geostat.SnapToNetwork(g, d.Point(i))
		events[i] = pos
		if dist > worstSnap {
			worstSnap = dist
		}
	}

	opt := geostat.NKDVOptions{Kernel: k, LixelLength: lixel, Workers: workers}
	start := time.Now()
	var surf *geostat.NKDVSurface
	if equalSplit {
		surf, err = geostat.NKDVEqualSplit(g, events, opt)
	} else {
		surf, err = geostat.NKDV(g, events, opt)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if err := writeSurfaceCSV(out, g, surf); err != nil {
		return err
	}
	li := surf.ArgMax()
	hot := g.PointAt(surf.Lixels[li].Edge, surf.Lixels[li].Center())
	fmt.Printf("%d events on %d edges (%.4g road units), %d lixels, bandwidth %.4g: %v\n",
		d.N(), g.NumEdges(), g.TotalLength(), len(surf.Lixels), bandwidth, elapsed.Round(time.Millisecond))
	fmt.Printf("worst snap distance %.4g; hottest segment at (%.4g, %.4g) density %.4g -> %s\n",
		worstSnap, hot.X, hot.Y, surf.Values[li], out)

	if geoOut != "" {
		fc := geostat.NewGeoJSON()
		peak := surf.Values[li]
		for i, l := range surf.Lixels {
			if surf.Values[i] < peak/2 {
				continue
			}
			a := g.PointAt(l.Edge, l.Start)
			b := g.PointAt(l.Edge, l.End)
			fc.AddLine([]geostat.Point{a, b}, map[string]any{"density": surf.Values[i]})
		}
		if err := fc.WriteFile(geoOut); err != nil {
			return err
		}
		fmt.Printf("wrote %s (lixels above half peak)\n", geoOut)
	}
	return nil
}

func writeSurfaceCSV(path string, g *geostat.RoadNetwork, surf *geostat.NKDVSurface) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cw := csv.NewWriter(f)
	if err := cw.Write([]string{"edge", "start", "end", "cx", "cy", "density"}); err != nil {
		return err
	}
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i, l := range surf.Lixels {
		c := g.PointAt(l.Edge, l.Center())
		if err := cw.Write([]string{
			strconv.Itoa(int(l.Edge)), ff(l.Start), ff(l.End), ff(c.X), ff(c.Y), ff(surf.Values[i]),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
