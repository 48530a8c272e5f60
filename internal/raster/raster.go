// Package raster holds evaluated density/interpolation surfaces (one value
// per pixel of a geom.PixelGrid) and renders them as PNG heatmaps or ASCII
// art — the Figure 1/4/5 artifacts of the paper.
package raster

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"os"
	"strings"
	"sync"

	"geostat/internal/geom"
)

// Grid is a scalar surface over a pixel grid. Values are stored row-major,
// index iy*NX+ix (see geom.PixelGrid.Index).
type Grid struct {
	Spec   geom.PixelGrid
	Values []float64
}

// NewGrid returns a zero-valued surface over spec.
func NewGrid(spec geom.PixelGrid) *Grid {
	return &Grid{Spec: spec, Values: make([]float64, spec.NumPixels())}
}

// At returns the value at pixel (ix, iy).
func (g *Grid) At(ix, iy int) float64 { return g.Values[g.Spec.Index(ix, iy)] }

// Set sets the value at pixel (ix, iy).
func (g *Grid) Set(ix, iy int, v float64) { g.Values[g.Spec.Index(ix, iy)] = v }

// Add adds v to the value at pixel (ix, iy).
func (g *Grid) Add(ix, iy int, v float64) { g.Values[g.Spec.Index(ix, iy)] += v }

// MinMax returns the smallest and largest values.
func (g *Grid) MinMax() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range g.Values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

// Sum returns the total of all values.
func (g *Grid) Sum() float64 {
	s := 0.0
	for _, v := range g.Values {
		s += v
	}
	return s
}

// ArgMax returns the pixel coordinates and value of the maximum — the
// "hotspot pixel" in a KDV surface.
func (g *Grid) ArgMax() (ix, iy int, v float64) {
	best := 0
	for i := 1; i < len(g.Values); i++ {
		if g.Values[i] > g.Values[best] {
			best = i
		}
	}
	return best % g.Spec.NX, best / g.Spec.NX, g.Values[best]
}

// MaxAbsDiff returns the maximum absolute difference between two surfaces,
// the exactness check used throughout the KDV tests.
func (g *Grid) MaxAbsDiff(o *Grid) (float64, error) {
	if len(g.Values) != len(o.Values) {
		return 0, fmt.Errorf("raster: grid sizes differ (%d vs %d)", len(g.Values), len(o.Values))
	}
	m := 0.0
	for i := range g.Values {
		if d := math.Abs(g.Values[i] - o.Values[i]); d > m {
			m = d
		}
	}
	return m, nil
}

// ColorRamp maps a normalised value in [0,1] to a color.
type ColorRamp func(t float64) color.RGBA

// heatAnchors are the colors HeatRamp interpolates between.
var heatAnchors = [...]color.RGBA{
	{R: 0x30, G: 0x30, B: 0xff, A: 0xff}, // blue
	{R: 0x00, G: 0xd0, B: 0xff, A: 0xff}, // cyan
	{R: 0x20, G: 0xc0, B: 0x40, A: 0xff}, // green
	{R: 0xff, G: 0xe0, B: 0x20, A: 0xff}, // yellow
	{R: 0xe0, G: 0x20, B: 0x20, A: 0xff}, // red
}

// HeatRamp is the classic blue→cyan→green→yellow→red hotspot ramp used by
// the GIS heatmaps the paper shows (Figure 1: red = hotspot), piecewise
// linear through heatAnchors.
func HeatRamp(t float64) color.RGBA {
	seg := clamp01(t) * float64(len(heatAnchors)-1)
	i := int(seg)
	if i >= len(heatAnchors)-1 {
		return heatAnchors[len(heatAnchors)-1]
	}
	f := seg - float64(i)
	a, b := heatAnchors[i], heatAnchors[i+1]
	return color.RGBA{
		R: lerpByte(a.R, b.R, f),
		G: lerpByte(a.G, b.G, f),
		B: lerpByte(a.B, b.B, f),
		A: 0xff,
	}
}

// GrayRamp maps values to a white→black gradient (for print-friendly
// output).
func GrayRamp(t float64) color.RGBA {
	t = clamp01(t)
	v := uint8(255 - t*255)
	return color.RGBA{R: v, G: v, B: v, A: 0xff}
}

// Image renders g to an image, normalising values to [min, max] and
// flipping the y axis so north is up. A constant surface renders as the
// ramp's zero color.
func (g *Grid) Image(ramp ColorRamp) *image.RGBA {
	lo, hi := g.MinMax()
	span := hi - lo
	nx, ny := g.Spec.NX, g.Spec.NY
	img := image.NewRGBA(image.Rect(0, 0, nx, ny))
	for iy := 0; iy < ny; iy++ {
		pix := img.Pix[(ny-1-iy)*img.Stride:]
		for ix, v := range g.Values[iy*nx : (iy+1)*nx] {
			t := 0.0
			if span > 0 {
				t = (v - lo) / span
			}
			c := ramp(t)
			pix[4*ix], pix[4*ix+1], pix[4*ix+2], pix[4*ix+3] = c.R, c.G, c.B, c.A
		}
	}
	return img
}

// pngEncoder is png.Encode with its compressor and row buffers (≈ 800 KB a
// call) kept between calls. The compression level stays the default, so the
// bytes are exactly png.Encode's.
var pngEncoder = png.Encoder{BufferPool: new(pngBuffers)}

type pngBuffers struct{ pool sync.Pool }

func (p *pngBuffers) Get() *png.EncoderBuffer {
	b, _ := p.pool.Get().(*png.EncoderBuffer)
	return b
}
func (p *pngBuffers) Put(b *png.EncoderBuffer) { p.pool.Put(b) }

// WritePNG renders g with ramp and writes a PNG stream to w.
func (g *Grid) WritePNG(w io.Writer, ramp ColorRamp) error {
	return pngEncoder.Encode(w, g.Image(ramp))
}

// WritePNGFile renders g to the named PNG file.
func (g *Grid) WritePNGFile(path string, ramp ColorRamp) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WritePNG(f, ramp); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ASCII renders g as character art (one char per pixel, darkest = highest),
// for terminal demos and golden tests. North is up.
func (g *Grid) ASCII() string {
	const shades = " .:-=+*#%@"
	lo, hi := g.MinMax()
	span := hi - lo
	var sb strings.Builder
	for iy := g.Spec.NY - 1; iy >= 0; iy-- {
		for ix := 0; ix < g.Spec.NX; ix++ {
			t := 0.0
			if span > 0 {
				t = (g.At(ix, iy) - lo) / span
			}
			idx := int(t * float64(len(shades)-1))
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			sb.WriteByte(shades[idx])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func clamp01(t float64) float64 {
	if t < 0 || math.IsNaN(t) {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

func lerpByte(a, b uint8, f float64) uint8 {
	return uint8(float64(a) + (float64(b)-float64(a))*f + 0.5)
}
