package load_test

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"geostat/internal/load"
	"geostat/internal/load/gate"
	"geostat/internal/serve"
)

// startServer boots a real HTTP listener around a serve.Server so the
// load harness exercises the same stack geostatd serves.
func startServer(t *testing.T, cfg serve.Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(serve.NewServer(cfg))
	t.Cleanup(ts.Close)
	return ts
}

func runScenario(t *testing.T, src string, path string, cfg serve.Config) *load.Artifact {
	t.Helper()
	var (
		sc  *load.Scenario
		err error
	)
	if path != "" {
		var data []byte
		data, err = os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sc, err = load.ParseScenario(data)
	} else {
		sc, err = load.ParseScenario([]byte(src))
	}
	if err != nil {
		t.Fatal(err)
	}
	ts := startServer(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	art, err := load.Run(ctx, sc, load.Options{BaseURL: ts.URL, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// TestRunHammerScenarioCoalescesLive is the live coalescing proof from
// the acceptance checklist: a scenario with 100% hot-key overlap (every
// client issues the identical request per round) must show shared > 0
// and a computation count strictly below the request count in the
// artifact — the single-flight layer, observed end to end through a
// real listener, a real client pool, and the /metrics delta.
func TestRunHammerScenarioCoalescesLive(t *testing.T) {
	art := runScenario(t, `{"name": "hammer-live", "seed": 99, "clients": 6, "requests": 2,
		"setup": [{"generate": "name=hot&kind=clusters&n=8000&seed=7"}],
		"profiles": [{"kind": "hammer", "dataset": "hot", "width": 64, "height": 64}]}`, "", serve.Config{CacheBytes: 64 << 20, MaxInFlight: 4})

	kdv := art.Tools["kdv"]
	if kdv == nil {
		t.Fatal("artifact has no kdv stats")
	}
	const want = 6 * 2
	if kdv.Count != want {
		t.Fatalf("kdv.count = %d, want %d", kdv.Count, want)
	}
	if kdv.Status["200"] != want {
		t.Fatalf("statuses = %v, want all %d to be 200", kdv.Status, want)
	}
	if art.Server.SingleflightShared == 0 {
		t.Fatalf("singleflight_shared = 0: lockstep hammer clients never coalesced (compute_total=%v)",
			art.Server.ComputeTotal)
	}
	if art.Server.ComputeTotal >= want {
		t.Fatalf("compute_total = %v, want < %d request count (coalescing + cache)",
			art.Server.ComputeTotal, want)
	}
	// Per-round accounting: every request either computed, attached to a
	// flight, or hit the result cache.
	total := art.Server.ComputeTotal + art.Server.SingleflightShared + art.Server.CacheHits
	if total < want {
		t.Fatalf("accounting hole: compute %v + shared %v + cache hits %v < %d requests",
			art.Server.ComputeTotal, art.Server.SingleflightShared, art.Server.CacheHits, want)
	}
}

// TestRunSmokeScenarioEndToEnd drives the committed smoke scenario —
// the one CI's load-gate job runs — against a live server and asserts
// the whole contract: the artifact passes the committed SLO file and a
// self-baseline comparison, a synthetically degraded artifact fails
// both, and the cancellation-storm clients actually recorded aborted
// requests.
func TestRunSmokeScenarioEndToEnd(t *testing.T) {
	art := runScenario(t, "", filepath.Join("..", "..", "scenarios", "smoke.json"),
		serve.Config{CacheBytes: 64 << 20, MaxInFlight: 8})

	// Every profile kind shows up in the artifact.
	for _, tool := range []string{"kdv", "upload"} {
		if art.Tools[tool] == nil || art.Tools[tool].Count == 0 {
			t.Fatalf("artifact has no %s samples: %+v", tool, art.Tools)
		}
	}
	if art.Tools["upload"].Status["200"] != art.Tools["upload"].Count {
		t.Fatalf("uploads not all 200: %v", art.Tools["upload"].Status)
	}
	// The cancel profile hangs up after 30ms on multi-second naive KDVs;
	// at least one of its six requests must have aborted client-side.
	if art.Tools["kdv"].Status["aborted"] == 0 {
		t.Fatalf("no aborted kdv requests recorded: %v (cancellation storm had no effect)",
			art.Tools["kdv"].Status)
	}

	// The healthy run passes the committed SLO gate…
	slo, err := gate.ReadSLOFile(filepath.Join("..", "..", "scenarios", "smoke_slo.json"))
	if err != nil {
		t.Fatal(err)
	}
	if results, failures := gate.Evaluate(art, slo); failures != 0 {
		t.Fatalf("healthy smoke run failed the committed SLO gate: %+v", results)
	}
	// …and a self-comparison shows no regressions.
	if rows, regressed := gate.Compare(art, art, 0.5, 50); regressed != 0 {
		t.Fatalf("self-comparison regressed: %+v", rows)
	}

	// A degraded copy of the same artifact must fail both gate halves.
	degraded := *art
	degraded.Tools = make(map[string]*load.ToolStats, len(art.Tools))
	for k, v := range art.Tools {
		cp := *v
		degraded.Tools[k] = &cp
	}
	degraded.Tools["kdv"].P95MS = 5e6
	degraded.Tools["kdv"].P50MS = 4e6
	degraded.Tools["kdv"].ErrorRate = 0.5
	if _, failures := gate.Evaluate(&degraded, slo); failures == 0 {
		t.Fatal("degraded artifact passed the SLO gate")
	}
	if _, regressed := gate.Compare(art, &degraded, 0.5, 50); regressed == 0 {
		t.Fatal("degraded artifact showed no regression against the healthy baseline")
	}

	// Artifact round-trip: what geogate reads equals what geoload wrote.
	path := filepath.Join(t.TempDir(), "LOAD_smoke.json")
	if err := art.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := load.ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Requests != art.Requests || back.Scenario != art.Scenario {
		t.Fatalf("artifact round-trip mismatch: wrote %d/%s, read %d/%s",
			art.Requests, art.Scenario, back.Requests, back.Scenario)
	}
	if _, failures := gate.Evaluate(back, slo); failures != 0 {
		t.Fatal("round-tripped artifact fails the SLO gate the in-memory one passed")
	}
}
