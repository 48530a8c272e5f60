// Package experiments implements the per-experiment harness of DESIGN.md:
// one runner per paper artifact (tables T1–T2, figures F1–F6) and per
// complexity claim (C1–C9). cmd/geobench dispatches into this package; the
// outputs recorded in EXPERIMENTS.md are produced here.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"geostat/internal/parallel"
)

// Config controls experiment scale and outputs.
type Config struct {
	// Out receives the experiment's table(s).
	Out io.Writer
	// Dir receives generated artifacts (PNGs, CSVs); empty disables them.
	Dir string
	// Seed drives every generator and simulation.
	Seed int64
	// Quick shrinks dataset sizes ~10× for smoke runs.
	Quick bool
	// Workers bounds the parallelism of every parallel-capable call;
	// 0 means every core (the default), otherwise passed through as-is.
	Workers int
}

func (c *Config) rng() *rand.Rand { return parallel.NewRand(c.Seed) }

// workers maps the zero-value Config to "every core".
func (c *Config) workers() int {
	if c.Workers == 0 {
		return -1
	}
	return c.Workers
}

// scale shrinks n in quick mode.
func (c *Config) scale(n int) int {
	if c.Quick {
		n /= 10
		if n < 10 {
			n = 10
		}
	}
	return n
}

func (c *Config) artifact(name string) (string, bool) {
	if c.Dir == "" {
		return "", false
	}
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return "", false
	}
	return filepath.Join(c.Dir, name), true
}

// Runner executes one experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(cfg *Config) error
}

// All returns every experiment in DESIGN.md order.
func All() []Runner {
	return []Runner{
		{"T1", "Table 1 — tool coverage matrix", RunT1},
		{"T2", "Table 2 — kernel functions", RunT2},
		{"F1", "Figure 1 — KDV hotspot heatmap", RunF1},
		{"F2", "Figure 2 — K-function plot with envelopes", RunF2},
		{"F3", "Figure 3 — Euclidean vs network distance", RunF3},
		{"F4", "Figure 4 — STKDV moving hotspots", RunF4},
		{"F5", "Figure 5 — end-to-end hotspot map pipeline", RunF5},
		{"F6", "Figure 6 — spatiotemporal K-function surface", RunF6},
		{"C1", "K-function scaling: naive O(n²) vs accelerated", RunC1},
		{"C2", "KDV scaling: naive O(XYn) vs cutoff vs sweep line", RunC2},
		{"C3", "Bound-based approximate KDV: ε sweep", RunC3},
		{"C4", "Sampling-based approximate KDV: ε sweep", RunC4},
		{"C5", "Parallel speedup: KDV and K-function", RunC5},
		{"C6", "Network K-function: naive vs shared Dijkstra", RunC6},
		{"C7", "IDW scaling: naive vs kNN vs radius", RunC7},
		{"C8", "Kriging / Moran / Getis-Ord / DBSCAN costs", RunC8},
		{"C9", "KDV view scaling: cost follows the points in view", RunC9},
		{"A1", "Ablation: SAFE multi-bandwidth sharing", RunA1},
		{"A2", "Ablation: adaptive vs fixed bandwidth", RunA2},
		{"A3", "Ablation: equal-split vs plain network kernel", RunA3},
		{"A4", "Inhomogeneous null: intensity vs interaction", RunA4},
	}
}

// Lookup returns the runner with the given id (case-insensitive).
func Lookup(id string) (Runner, bool) {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) {
			return r, true
		}
	}
	return Runner{}, false
}

// ---- small table/timing helpers shared by all runners ----

// table accumulates rows and renders aligned columns.
type table struct {
	header []string
	rows   [][]string
}

func newTable(cols ...string) *table { return &table{header: cols} }

func (t *table) add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		case time.Duration:
			row[i] = v.Round(10 * time.Microsecond).String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 1 || v <= -1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.5f", v)
	}
}

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// timeIt runs fn and returns its duration.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// medianOf3 runs fn three times and returns the median duration — cheap
// insulation from scheduler noise in the printed tables.
func medianOf3(fn func()) time.Duration {
	ds := []time.Duration{timeIt(fn), timeIt(fn), timeIt(fn)}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[1]
}

func speedup(base, fast time.Duration) string {
	if fast <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(base)/float64(fast))
}
