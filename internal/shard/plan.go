package shard

import (
	"bytes"
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/kernel"
)

// KDVRequest describes one sharded KDV computation: the full-extent grid
// and kernel of the single-node request it must reproduce bit-for-bit,
// plus the tile decomposition.
type KDVRequest struct {
	// Kernel is K and bandwidth b. Only finite-support kernels shard
	// exactly: every point beyond the support radius contributes exactly
	// zero, so dropping it cannot change an IEEE sum. The planner rejects
	// Gaussian and exponential kernels.
	Kernel kernel.Kernel
	// Grid is the full output raster. Tiles are pixel windows of it; the
	// workers evaluate centers from this grid, never from a tile sub-box.
	Grid geom.PixelGrid
	// TilesX, TilesY split the raster into TilesX×TilesY tiles (balanced
	// integer cuts). 0 means 1.
	TilesX, TilesY int
	// Normalize applies NormConst/n scaling after the merge, replicating
	// the single-node normalize=true surface. Workers always compute raw
	// sums: the scale depends on the full point count, which no single
	// tile knows.
	Normalize bool
}

// Tile is one unit of sharded KDV work: a pixel window of the full grid
// plus the halo-filtered point subset that makes it edge-correct in
// isolation.
type Tile struct {
	ID     int
	Window geom.GridWindow
	// HaloBox is the tile's pixel box padded by the kernel's support
	// radius, Grid.SupportBox(Window, SupportRadius()) — the box the
	// worker's kde.Evaluate clips to, so the tile subset passes through
	// that clip untouched.
	HaloBox geom.BBox
	// Dataset is the worker-side dataset name for the tile's point
	// subset: "<name>.<digest12>.t<id>", digest12 being the first 12 hex
	// digits of Digest (empty for an empty tile, which is never uploaded).
	// Naming by the SUBSET's content means a re-run over the same data
	// reuses datasets already on the workers, while a different bandwidth
	// or tiling under the same logical name — a different subset — can
	// never be mistaken for one already placed.
	Dataset string
	// Digest is the expected content digest of the tile subset, checked
	// against the worker before compute.
	Digest string

	// csv is the encoded subset for upload; nil for an empty tile (no
	// points in the halo box), which is zero-filled locally — workers
	// reject empty datasets, and zero is what an empty sum produces.
	csv []byte
	n   int
}

// Empty reports whether the tile has no contributing points.
func (t *Tile) Empty() bool { return t.csv == nil }

// KDVPlan is a validated tile decomposition for one KDVRequest.
type KDVPlan struct {
	Req   KDVRequest
	Tiles []Tile
	// N is the full dataset's point count (the normalisation mass).
	N int
}

// PlanKDV validates req against the dataset and cuts the raster into
// halo-replicated tiles. name is the logical dataset name used to derive
// worker-side tile dataset names; it must be URL-safe.
func PlanKDV(d *dataset.Dataset, name string, req KDVRequest) (*KDVPlan, error) {
	if d == nil || d.N() == 0 {
		return nil, fmt.Errorf("shard: empty dataset")
	}
	if err := checkName(name); err != nil {
		return nil, err
	}
	if req.Kernel.Bandwidth() <= 0 {
		return nil, fmt.Errorf("shard: kernel not initialised (zero bandwidth); use kernel.New")
	}
	if !req.Kernel.FiniteSupport() {
		return nil, fmt.Errorf("shard: %s kernel has infinite support and cannot shard exactly; every point contributes to every tile", req.Kernel.Type())
	}
	if req.Grid.NX <= 0 || req.Grid.NY <= 0 {
		return nil, fmt.Errorf("shard: grid not initialised (%dx%d)", req.Grid.NX, req.Grid.NY)
	}
	tx, ty := req.TilesX, req.TilesY
	if tx == 0 {
		tx = 1
	}
	if ty == 0 {
		ty = 1
	}
	if tx < 1 || tx > req.Grid.NX || ty < 1 || ty > req.Grid.NY {
		return nil, fmt.Errorf("shard: %dx%d tiles over a %dx%d grid", tx, ty, req.Grid.NX, req.Grid.NY)
	}
	halo := req.Kernel.SupportRadius()
	plan := &KDVPlan{Req: req, N: d.N(), Tiles: make([]Tile, 0, tx*ty)}
	for iy := 0; iy < ty; iy++ {
		for ix := 0; ix < tx; ix++ {
			win := geom.GridWindow{
				X0: ix * req.Grid.NX / tx,
				Y0: iy * req.Grid.NY / ty,
			}
			win.NX = (ix+1)*req.Grid.NX/tx - win.X0
			win.NY = (iy+1)*req.Grid.NY/ty - win.Y0
			id := iy*tx + ix
			t := Tile{
				ID:      id,
				Window:  win,
				HaloBox: req.Grid.SupportBox(win, halo),
			}
			sub := d.FilterBox(t.HaloBox)
			if sub.N() > 0 {
				var buf bytes.Buffer
				if err := dataset.WriteCSV(&buf, sub); err != nil {
					return nil, fmt.Errorf("shard: encode tile %d: %w", id, err)
				}
				t.csv = buf.Bytes()
				t.n = sub.N()
				t.Digest = sub.Digest()
				t.Dataset = fmt.Sprintf("%s.%s.t%d", name, t.Digest[:12], id)
			}
			plan.Tiles = append(plan.Tiles, t)
		}
	}
	return plan, nil
}

// tileQuery builds the worker request for one tile: a windowed naive KDV
// over the FULL grid spec, answered as format=f64. bbox and bandwidth are
// shortest-round-trip decimal, which ParseFloat recovers to the identical
// float64, so the worker reconstructs this exact grid.
func (p *KDVPlan) tileQuery(t *Tile) url.Values {
	q := url.Values{}
	q.Set("dataset", t.Dataset)
	q.Set("method", "naive")
	q.Set("kernel", p.Req.Kernel.Type().String())
	q.Set("bandwidth", formatF(p.Req.Kernel.Bandwidth()))
	q.Set("width", strconv.Itoa(p.Req.Grid.NX))
	q.Set("height", strconv.Itoa(p.Req.Grid.NY))
	b := p.Req.Grid.Box
	q.Set("bbox", formatF(b.MinX)+","+formatF(b.MinY)+","+formatF(b.MaxX)+","+formatF(b.MaxY))
	q.Set("tile", fmt.Sprintf("%d,%d,%d,%d", t.Window.X0, t.Window.Y0, t.Window.NX, t.Window.NY))
	q.Set("format", "f64")
	return q
}

// KFuncRequest describes one sharded K-function computation.
type KFuncRequest struct {
	// Thresholds is the full strictly-increasing band list of the
	// single-node plot to reproduce.
	Thresholds []float64
	// Sims is the Monte-Carlo envelope simulation count; Seed drives the
	// simulation draws.
	Sims int
	Seed int64
}

// KFuncPlan is a validated K-function request over the full dataset,
// which one owner worker evaluates whole: pair counting has no spatial
// locality to exploit without double-counting border pairs, and a split
// of the band list would regenerate every Monte-Carlo simulation in every
// part.
type KFuncPlan struct {
	Req     KFuncRequest
	Dataset string // worker-side dataset name: "<name>.<digest12>"
	Digest  string
	csv     []byte
}

// PlanKFunc validates req and encodes the dataset for upload.
func PlanKFunc(d *dataset.Dataset, name string, req KFuncRequest) (*KFuncPlan, error) {
	if d == nil || d.N() == 0 {
		return nil, fmt.Errorf("shard: empty dataset")
	}
	if err := checkName(name); err != nil {
		return nil, err
	}
	if len(req.Thresholds) == 0 {
		return nil, fmt.Errorf("shard: no thresholds")
	}
	prev := 0.0
	for i, s := range req.Thresholds {
		if s <= prev {
			return nil, fmt.Errorf("shard: thresholds must be positive and strictly increasing (index %d: %g after %g)", i, s, prev)
		}
		prev = s
	}
	if req.Sims < 1 {
		return nil, fmt.Errorf("shard: sims must be positive")
	}
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, d); err != nil {
		return nil, fmt.Errorf("shard: encode dataset: %w", err)
	}
	digest := d.Digest()
	return &KFuncPlan{
		Req:     req,
		Dataset: fmt.Sprintf("%s.%s", name, digest[:12]),
		Digest:  digest,
		csv:     buf.Bytes(),
	}, nil
}

// query builds the worker request for the whole plot. The threshold list
// is explicit so the worker evaluates exactly the planned bands.
func (p *KFuncPlan) query() url.Values {
	parts := make([]string, len(p.Req.Thresholds))
	for i, s := range p.Req.Thresholds {
		parts[i] = formatF(s)
	}
	q := url.Values{}
	q.Set("dataset", p.Dataset)
	q.Set("sims", strconv.Itoa(p.Req.Sims))
	q.Set("seed", strconv.FormatInt(p.Req.Seed, 10))
	q.Set("thresholds", strings.Join(parts, ","))
	return q
}

// formatF renders a float64 in shortest form that ParseFloat round-trips
// to the identical bits (the dataset CSV convention).
func formatF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// checkName rejects dataset names that would not survive a URL path or
// query round-trip unescaped, keeping worker-side names exactly equal to
// the planner's.
func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("shard: empty dataset name")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("shard: dataset name %q: use letters, digits, '-', '_', '.'", name)
		}
	}
	return nil
}
