// Package load is a deterministic load generator for geostatd. A
// Scenario declares a population of synthetic clients (map-zoom
// sessions with zipf hot-key skew, cold dataset uploads, mixed-tool
// steady state, cancellation storms, lockstep hammers), the generator
// expands it into per-client request plans seeded from the scenario
// seed — same scenario + same seed ⇒ byte-identical plans — drives a
// live server with them, and emits a structured artifact with per-tool
// latency quantiles, error rates, and server-side cache/coalescing
// counters scraped from /metrics. cmd/geogate asserts SLO thresholds
// against that artifact and compares it with a committed baseline.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
)

// Scenario is the declarative description of one load run: a JSON file
// (scenarios/*.json).
type Scenario struct {
	// Name labels the artifact; defaults to "unnamed".
	Name string `json:"name"`
	// Seed feeds every random decision in the plan. Required (an
	// explicit seed is what makes a run reproducible; there is no
	// time-based default on purpose).
	Seed int64 `json:"seed"`
	// Clients is the number of concurrent synthetic clients.
	Clients int `json:"clients"`
	// Requests is the number of requests each client issues.
	Requests int `json:"requests"`
	// Setup runs once, sequentially, before the clients start.
	Setup []Setup `json:"setup,omitempty"`
	// Profiles partition the clients by weight; client behaviour is
	// fully determined by its profile and its per-client RNG stream.
	Profiles []Profile `json:"profiles"`
}

// Setup is one pre-run provisioning step.
type Setup struct {
	// Generate posts /v1/generate with this query string, e.g.
	// "name=hot&kind=clusters&n=50000&seed=7&field=true".
	Generate string `json:"generate"`
}

// Profile describes one client behaviour. Weight-proportional shares of
// the client population are assigned to profiles in declaration order.
type Profile struct {
	// Kind is one of zoom, mixed, upload, cancel, hammer.
	Kind string `json:"kind"`
	// Weight is the relative share of clients running this profile.
	// Defaults to 1.
	Weight float64 `json:"weight,omitempty"`
	// Dataset names the dataset the profile queries (zoom, mixed,
	// cancel, hammer). Usually created by a Setup step.
	Dataset string `json:"dataset,omitempty"`

	// Tiles is the size of the tile universe a zoom/cancel session
	// picks from (default 64): tile 0 is the hottest.
	Tiles int `json:"tiles,omitempty"`
	// ZipfS ≥ 1.01 skews tile popularity (default 1.2; larger = more
	// traffic on the hot tiles).
	ZipfS float64 `json:"zipf_s,omitempty"`
	// Width/Height are the raster dimensions requested (default 64×64).
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`

	// Points is the size of each cold dataset an upload client posts
	// (default 500).
	Points int `json:"points,omitempty"`

	// CancelAfterMS makes a cancel client abandon each request after
	// this many milliseconds (default 25).
	CancelAfterMS int `json:"cancel_after_ms,omitempty"`
}

// profileKinds is the closed set Validate accepts.
var profileKinds = map[string]bool{
	"zoom":   true,
	"mixed":  true,
	"upload": true,
	"cancel": true,
	"hammer": true,
}

// ParseScenario decodes a scenario file strictly (a misspelt field is an
// error, not a silently ignored knob), applies defaults, and validates it.
func ParseScenario(src []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(src))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("parse scenario: %w", err)
	}
	sc.applyDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

func (sc *Scenario) applyDefaults() {
	if sc.Name == "" {
		sc.Name = "unnamed"
	}
	if sc.Clients == 0 {
		sc.Clients = 4
	}
	if sc.Requests == 0 {
		sc.Requests = 10
	}
	for i := range sc.Profiles {
		p := &sc.Profiles[i]
		if p.Weight == 0 {
			p.Weight = 1
		}
		if p.Tiles == 0 {
			p.Tiles = 64
		}
		if p.ZipfS == 0 {
			p.ZipfS = 1.2
		}
		if p.Width == 0 {
			p.Width = 64
		}
		if p.Height == 0 {
			p.Height = 64
		}
		if p.Points == 0 {
			p.Points = 500
		}
		if p.CancelAfterMS == 0 {
			p.CancelAfterMS = 25
		}
	}
}

// Validate rejects scenarios that cannot be planned deterministically
// or would not exercise anything.
func (sc *Scenario) Validate() error {
	var errs []string
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf(format, args...))
	}
	if sc.Seed == 0 {
		bad("seed must be set and non-zero (the seed is the reproducibility contract)")
	}
	if sc.Clients < 1 || sc.Clients > 4096 {
		bad("clients must be in [1, 4096], got %d", sc.Clients)
	}
	if sc.Requests < 1 || sc.Requests > 100000 {
		bad("requests must be in [1, 100000], got %d", sc.Requests)
	}
	if len(sc.Profiles) == 0 {
		bad("at least one profile is required")
	}
	for i, p := range sc.Profiles {
		if !profileKinds[p.Kind] {
			bad("profile %d: unknown kind %q (zoom|mixed|upload|cancel|hammer)", i, p.Kind)
			continue
		}
		if p.Weight < 0 {
			bad("profile %d: weight must be >= 0, got %v", i, p.Weight)
		}
		if p.Kind != "upload" && p.Dataset == "" {
			bad("profile %d (%s): dataset is required", i, p.Kind)
		}
		if p.ZipfS <= 1 {
			bad("profile %d: zipf_s must be > 1, got %v", i, p.ZipfS)
		}
		if p.Tiles < 1 || p.Tiles > 1<<16 {
			bad("profile %d: tiles must be in [1, 65536], got %d", i, p.Tiles)
		}
		if p.Width < 1 || p.Width > 1024 || p.Height < 1 || p.Height > 1024 {
			bad("profile %d: width/height must be in [1, 1024]", i)
		}
		if p.Points < 1 || p.Points > 100000 {
			bad("profile %d: points must be in [1, 100000], got %d", i, p.Points)
		}
		if p.CancelAfterMS < 1 {
			bad("profile %d: cancel_after_ms must be >= 1, got %d", i, p.CancelAfterMS)
		}
	}
	for i, st := range sc.Setup {
		if strings.TrimSpace(st.Generate) == "" {
			bad("setup %d: generate query string is empty", i)
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("invalid scenario: %s", strings.Join(errs, "; "))
	}
	return nil
}
