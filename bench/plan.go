package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"geostat"
)

// kdvSpec is one KDV request, the unit of work of lib_kdv and shard_kdv.
type kdvSpec struct {
	Kernel     string
	Bandwidth  float64
	Method     string // geostat.KDVMethod name
	Box        geostat.BBox
	NX, NY     int
	Eps, Delta float64
	Seed       int64
}

func (s kdvSpec) key() string {
	return fmt.Sprintf("%s/%s/b=%g/%g,%g,%g,%g/%dx%d/e=%g/d=%g/s=%d", s.Method, s.Kernel, s.Bandwidth,
		s.Box.MinX, s.Box.MinY, s.Box.MaxX, s.Box.MaxY, s.NX, s.NY, s.Eps, s.Delta, s.Seed)
}

var kdvMethods = map[string]geostat.KDVMethod{
	"auto":         geostat.KDVAuto,
	"naive":        geostat.KDVNaive,
	"bound-approx": geostat.KDVBoundApprox,
	"sampled":      geostat.KDVSampled,
}

// options turns the spec into facade options. Workers=-1 everywhere: the
// program under test uses every core it is given.
func (s kdvSpec) options() (geostat.KDVOptions, error) {
	kt, err := geostat.ParseKernel(s.Kernel)
	if err != nil {
		return geostat.KDVOptions{}, err
	}
	k, err := geostat.NewKernel(kt, s.Bandwidth)
	if err != nil {
		return geostat.KDVOptions{}, err
	}
	m, ok := kdvMethods[s.Method]
	if !ok {
		return geostat.KDVOptions{}, fmt.Errorf("unknown KDV method %q", s.Method)
	}
	return geostat.KDVOptions{
		Kernel: k, Grid: geostat.NewPixelGrid(s.Box, s.NX, s.NY), Method: m,
		Workers: -1, Epsilon: s.Eps, Delta: s.Delta, Seed: s.Seed,
	}, nil
}

// httpStep is one request of a serving op. GET steps are verified by URL
// (equal URL at equal dataset content ⇒ byte-identical body); POST steps
// upload the named payload and are verified by the point count echoed back.
type httpStep struct {
	Method  string
	URL     string // path and query
	Payload string // POST only: "survey.csv", "survey.geojson" or "cold.csv"
}

// op is one entry of a plan.
type op struct {
	ID    int
	Class string
	Key   string     // lib/shard: equal keys must give bit-identical grids
	KDV   *kdvSpec   // lib_kdv and shard_kdv
	Name  string     // shard_kdv: logical dataset name, the placement identity
	Steps []httpStep // serve_tiles and serve_mixed
}

// plan is a workload's seed-derived operation list. Runs execute Ops in
// order, whole rounds at a time, until the measuring time is used up; Warm
// is the untimed pass set-up makes over the distinct op classes.
type plan struct {
	Workload string
	Round    int // ops per round; class proportions are exact per round
	Warm     []op
	Ops      []op
}

// digest is the plan's identity: sha256 over every field of every op.
func (p *plan) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s round=%d\n", p.Workload, p.Round)
	for _, list := range [][]op{p.Warm, p.Ops} {
		fmt.Fprintf(h, "list %d\n", len(list))
		for i := range list {
			o := &list[i]
			fmt.Fprintf(h, "%d|%s|%s|%s", o.ID, o.Class, o.Key, o.Name)
			if o.KDV != nil {
				fmt.Fprintf(h, "|%s", o.KDV.key())
			}
			for _, st := range o.Steps {
				fmt.Fprintf(h, "|%s %s %s", st.Method, st.URL, st.Payload)
			}
			fmt.Fprintln(h)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// number gives every op its position in the list as its id.
func number(ops []op) {
	for i := range ops {
		ops[i].ID = i
	}
}

// ---- lib_kdv ----

// libClasses is one round of lib_kdv: six classes in proportion
// 2:2:2:1:1:1, each half on the full box and half on a zoom window.
var libClasses = []struct {
	class string
	n     int
}{
	{"sweep", 4}, {"cutoff", 4}, {"naive_finite", 4},
	{"naive_gauss", 2}, {"bound_approx", 2}, {"sampled", 2},
}

// libVariants returns the parameter combinations of a class, all on the
// full box. The plan walks them in a fixed cycle, so every run prefix of a
// few rounds holds the same mix of bandwidths and kernels whatever the
// seed; the seed picks the zoom windows and the order within a round.
func libVariants(class string) []kdvSpec {
	var out []kdvSpec
	add := func(s kdvSpec, bandwidths ...float64) {
		for _, b := range bandwidths {
			s.Bandwidth, s.Box = b, studyBox
			out = append(out, s)
		}
	}
	switch class {
	case "sweep": // polynomial kernels: auto picks the sweep line
		for _, k := range []string{"quartic", "epanechnikov"} {
			add(kdvSpec{Kernel: k, Method: "auto", NX: 192, NY: 192}, 1, 2, 4)
		}
	case "cutoff": // finite support, not polynomial: auto picks grid cutoff
		for _, k := range []string{"triangular", "cosine"} {
			add(kdvSpec{Kernel: k, Method: "auto", NX: 96, NY: 96}, 1, 2, 4)
		}
	case "naive_finite": // chunk-bbox pruning applies
		add(kdvSpec{Kernel: "quartic", Method: "naive", NX: 24, NY: 24}, 1, 2, 4)
	case "naive_gauss": // infinite support: every point meets every pixel
		add(kdvSpec{Kernel: "gaussian", Method: "naive", NX: 12, NY: 12}, 1, 2, 4)
	case "bound_approx":
		add(kdvSpec{Kernel: "gaussian", Method: "bound-approx", NX: 24, NY: 24, Eps: 0.05}, 2, 4)
	case "sampled":
		for _, seed := range []int64{1, 2} {
			add(kdvSpec{Kernel: "gaussian", Method: "sampled", NX: 32, NY: 32, Eps: 0.05, Delta: 0.01, Seed: seed}, 1, 2, 4)
		}
	}
	return out
}

func planLibKDV(seed int64, rounds int) *plan {
	rng := geostat.NewRand(seed)
	// A small pool of zoom windows makes keys repeat, which the
	// bit-identity check needs.
	zooms := zoomWindows(rng, 3)
	p := &plan{Workload: "lib_kdv"}
	variants := make(map[string][]kdvSpec)
	for _, c := range libClasses {
		variants[c.class] = libVariants(c.class)
	}
	drawn := make(map[string]int) // ops drawn so far per class
	next := func(class string) op {
		vs := variants[class]
		j := drawn[class]
		drawn[class]++
		s := vs[(j/2)%len(vs)]
		if j%2 == 1 {
			s.Box = zooms[(j/2)%len(zooms)]
		}
		return op{Class: class, Key: s.key(), KDV: &s}
	}
	for _, c := range libClasses { // warm-up: one full-box op of each class
		s := variants[c.class][0]
		p.Warm = append(p.Warm, op{Class: c.class, Key: s.key(), KDV: &s})
	}
	for r := 0; r < rounds; r++ {
		var ops []op
		for _, c := range libClasses {
			for i := 0; i < c.n; i++ {
				ops = append(ops, next(c.class))
			}
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		p.Round = len(ops)
		p.Ops = append(p.Ops, ops...)
	}
	number(p.Warm)
	number(p.Ops)
	return p
}

// ---- serve_tiles ----

const (
	tileLevels = 4   // 1+4+16+64 bboxes
	tilePixels = 128 // tile raster side
	tileZipfS  = 1.1
	tilePNG    = 0.7 // share of format=png requests; the rest are json
)

// tilePyramid returns the tile bboxes of every level with their
// bandwidths, ordered by descending point density in d.
func tilePyramid(d *geostat.Dataset) []kdvSpec {
	type ranked struct {
		spec    kdvSpec
		density float64
	}
	var tiles []ranked
	for l := 0; l < tileLevels; l++ {
		side := 1 << l
		w := studyBox.Width() / float64(side)
		for iy := 0; iy < side; iy++ {
			for ix := 0; ix < side; ix++ {
				box := geostat.BBox{
					MinX: float64(ix) * w, MinY: float64(iy) * w,
					MaxX: float64(ix+1) * w, MaxY: float64(iy+1) * w,
				}
				tiles = append(tiles, ranked{
					spec: kdvSpec{Kernel: "quartic", Bandwidth: 4 / float64(side), Method: "auto",
						Box: box, NX: tilePixels, NY: tilePixels},
					density: float64(d.FilterBox(box).N()) / box.Area(),
				})
			}
		}
	}
	sort.SliceStable(tiles, func(i, j int) bool { return tiles[i].density > tiles[j].density })
	out := make([]kdvSpec, len(tiles))
	for i, t := range tiles {
		out[i] = t.spec
	}
	return out
}

func kdvURL(dataset string, s kdvSpec, format string) string {
	u := "/v1/kdv?dataset=" + dataset + "&kernel=" + s.Kernel + "&bandwidth=" + fmtF(s.Bandwidth) +
		"&width=" + strconv.Itoa(s.NX) + "&height=" + strconv.Itoa(s.NY) + "&bbox=" + bboxParam(s.Box)
	if s.Method != "auto" {
		u += "&method=" + s.Method
	}
	return u + "&format=" + format
}

func bboxParam(b geostat.BBox) string {
	return fmtF(b.MinX) + "," + fmtF(b.MinY) + "," + fmtF(b.MaxX) + "," + fmtF(b.MaxY)
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// planServeTiles draws tiles zipf(s) by density rank. The ranking comes from
// a reference sample of the city layout and not from the seed's own points,
// so which tiles are hot, and with it how their cache entries collide, is
// the same for every seed.
func planServeTiles(seed int64, cityN, warm, n int) *plan {
	tiles := tilePyramid(clustered(layoutSeed, cityN))
	rng := geostat.NewRand(seed)
	zipf := rand.NewZipf(rng, tileZipfS, 1, uint64(len(tiles)-1))
	draw := func(count int) []op {
		ops := make([]op, count)
		for i := range ops {
			format, class := "json", "tile_json"
			if rng.Float64() < tilePNG {
				format, class = "png", "tile_png"
			}
			u := kdvURL("city", tiles[zipf.Uint64()], format)
			ops[i] = op{ID: i, Class: class, Key: u, Steps: []httpStep{{Method: "GET", URL: u}}}
		}
		return ops
	}
	return &plan{Workload: "serve_tiles", Round: 1, Warm: draw(warm), Ops: draw(n)}
}

// ---- serve_mixed ----

// mixedClasses is one round of serve_mixed (20 ops): 30 % kdv, 15 %
// kfunction, 15 % moran/generalg, 15 % idw, 10 % exact repeats, 15 % uploads.
var mixedClasses = []struct {
	class string
	n     int
}{
	{"kdv", 6}, {"kfunction", 3}, {"moran", 2}, {"generalg", 1}, {"idw_knn", 2}, {"idw_naive", 1},
	{"repeat", 2}, {"reupload_csv", 1}, {"reupload_geojson", 1}, {"cold_upload", 1},
}

func planServeMixed(seed int64, rounds int) *plan {
	rng := geostat.NewRand(seed)
	boxes := []geostat.BBox{studyBox, zoomWindows(rng, 1)[0]}
	kernels := []string{"quartic", "epanechnikov", "triangular"}
	unique := 0 // seeds and cold names never repeat, so those ops always compute
	// Kernels and boxes are walked in a fixed cycle, not drawn: every round
	// holds each (kernel, box) of kdv once and each box of idw_knn once.
	drawn := make(map[string]int)
	get := func(class, u string) op {
		return op{Class: class, Key: u, Steps: []httpStep{{Method: "GET", URL: u}}}
	}
	make1 := func(class string, last *op) op {
		unique++
		j := drawn[class]
		drawn[class]++
		switch class {
		case "kdv": // bandwidth=0: Silverman's rule inside the handler
			s := kdvSpec{Kernel: kernels[j%len(kernels)], Method: "auto",
				Box: boxes[(j/len(kernels))%len(boxes)], NX: 96, NY: 96}
			return get(class, kdvURL("survey", s, "json"))
		case "kfunction":
			return get(class, fmt.Sprintf("/v1/kfunction?dataset=survey&smax=2&steps=10&sims=19&seed=%d", 1000+unique))
		case "moran", "generalg":
			return get(class, fmt.Sprintf("/v1/%s?dataset=survey&weights=knn&k=8&perms=99&seed=%d", class, 1000+unique))
		case "idw_knn":
			return get(class, "/v1/idw?dataset=survey&method=knn&k=8&width=64&height=64&bbox="+
				bboxParam(boxes[j%len(boxes)])+"&format=json")
		case "idw_naive":
			return get(class, "/v1/idw?dataset=survey&method=naive&width=16&height=16&bbox="+
				bboxParam(boxes[j%len(boxes)])+"&format=json")
		case "repeat":
			return get(class, last.Steps[len(last.Steps)-1].URL)
		case "reupload_csv":
			return op{Class: class, Steps: []httpStep{{Method: "POST", URL: "/v1/datasets/survey", Payload: "survey.csv"}}}
		case "reupload_geojson":
			return op{Class: class, Steps: []httpStep{{Method: "POST", URL: "/v1/datasets/survey", Payload: "survey.geojson"}}}
		default: // cold_upload: a new name, then one read of it
			name := fmt.Sprintf("cold%d", unique)
			s := kdvSpec{Kernel: "quartic", Bandwidth: 3, Method: "auto", Box: studyBox, NX: 32, NY: 32}
			return op{Class: class, Steps: []httpStep{
				{Method: "POST", URL: "/v1/datasets/" + name, Payload: "cold.csv"},
				{Method: "GET", URL: kdvURL(name, s, "json")},
			}}
		}
	}
	p := &plan{Workload: "serve_mixed"}
	// lastRead is what a "repeat" op repeats: the most recent read in plan
	// order.
	lastRead := get("kdv", kdvURL("survey", kdvSpec{Kernel: "quartic", Method: "auto", Box: studyBox, NX: 96, NY: 96}, "json"))
	emit := func(list *[]op, classes []string) {
		for _, c := range classes {
			o := make1(c, &lastRead)
			if o.Steps[len(o.Steps)-1].Method == "GET" && c != "cold_upload" {
				lastRead = o
			}
			*list = append(*list, o)
		}
	}
	var one, round []string
	for _, c := range mixedClasses {
		one = append(one, c.class)
		for i := 0; i < c.n; i++ {
			round = append(round, c.class)
		}
	}
	emit(&p.Warm, one)
	p.Round = len(round)
	for r := 0; r < rounds; r++ {
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		emit(&p.Ops, round)
	}
	number(p.Warm)
	number(p.Ops)
	return p
}

// ---- shard_kdv ----

const (
	shardPixels = 128
	shardTiles  = 4 // 4×4 tiles
	shardRecent = 12
)

// shardWarmKernels are the finite-support kernels a warm op may use on a
// placement whose cold op used quartic: same bandwidth ⇒ same halo subsets
// ⇒ no upload, but a worker-cache miss.
//
// Triweight is left out: its degree-6 sweep line, the single-node auto
// result the merged raster is checked against, is only good to ~1e-6 of the
// peak at this size.
var shardWarmKernels = []string{"epanechnikov", "triangular", "cosine"}

// placementName is the logical dataset name of placement i. Every placement
// gets its own name because the coordinator derives tile dataset names from
// (name, full-dataset digest, tile id) only: under one name a second
// bandwidth would silently reuse the first bandwidth's halo subsets.
func placementName(i int) string { return fmt.Sprintf("big.p%d", i) }

func shardSpec(placement int, kernel string) (kdvSpec, string) {
	// A bandwidth not seen before for every placement.
	b := 2 + 0.01*float64(placement)
	return kdvSpec{Kernel: kernel, Bandwidth: b, Method: "auto", Box: studyBox,
		NX: shardPixels, NY: shardPixels}, placementName(placement)
}

// planShardKDV builds rounds of 10: one cold op (new placement: 16 uploads
// + compute), two warm ops (the previous round's placement under another
// kernel: compute only) and seven hot ops (exact repeats of recent keys).
func planShardKDV(seed int64, rounds int) *plan {
	rng := geostat.NewRand(seed)
	mk := func(class string, placement int, kernel string) op {
		s, name := shardSpec(placement, kernel)
		return op{Class: class, Key: name + "/" + s.key(), KDV: &s, Name: name}
	}
	p := &plan{Workload: "shard_kdv", Round: 10}
	p.Warm = []op{mk("cold", 0, "quartic"), mk("warm", 0, "uniform")}
	p.Warm = append(p.Warm, p.Warm[0])
	p.Warm[2].Class = "hot"
	seen := []op{p.Warm[0], p.Warm[1]} // keys whose results sit in the worker caches
	for r := 0; r < rounds; r++ {
		ops := []op{
			mk("cold", r+1, "quartic"),
			mk("warm", r, shardWarmKernels[(2*r)%len(shardWarmKernels)]),
			mk("warm", r, shardWarmKernels[(2*r+1)%len(shardWarmKernels)]),
		}
		recent := seen
		if len(recent) > shardRecent {
			recent = recent[len(recent)-shardRecent:]
		}
		for i := 0; i < 7; i++ {
			h := recent[rng.Intn(len(recent))]
			h.Class = "hot"
			ops = append(ops, h)
		}
		seen = append(seen, ops[:3]...)
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		p.Ops = append(p.Ops, ops...)
	}
	number(p.Warm)
	number(p.Ops)
	return p
}
