package load

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the golden plan log instead of comparing against it:
//
//	go test ./internal/load -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

func parseScenarioFile(t *testing.T, path string) (*Scenario, error) {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return ParseScenario(src)
}

func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestGoldenSmokePlan pins the full request plan of the committed smoke
// scenario: any change to the planner, the zipf draws, the RNG
// derivation, or the scenario file itself shows up as a golden diff.
// This is the determinism contract — the plan is a pure function of the
// scenario, so the golden never flakes.
func TestGoldenSmokePlan(t *testing.T) {
	sc, err := parseScenarioFile(t, "../../scenarios/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	plans, err := Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "golden", "smoke.plan"), FormatPlan(plans))
}

// TestPlanIsDeterministic expands the same scenario twice and requires
// byte-identical plans, including upload bodies.
func TestPlanIsDeterministic(t *testing.T) {
	sc, err := parseScenarioFile(t, "../../scenarios/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	if FormatPlan(a) != FormatPlan(b) {
		t.Fatal("two expansions of the same scenario differ")
	}
	for c := range a {
		for i := range a[c] {
			if string(a[c][i].Body) != string(b[c][i].Body) {
				t.Fatalf("client %d request %d: upload bodies differ", c, i)
			}
		}
	}
}

// TestPlanHammerLockstep pins the coalescing mechanism: every hammer
// client must issue the IDENTICAL path at the same sequence number, and
// consecutive sequence numbers must differ (fresh cache key per round).
func TestPlanHammerLockstep(t *testing.T) {
	sc, err := ParseScenario([]byte(`{"name": "h", "seed": 9, "clients": 4, "requests": 3,
		"profiles": [{"kind": "hammer", "dataset": "d"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	plans, err := Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < sc.Requests; seq++ {
		for c := 1; c < sc.Clients; c++ {
			if plans[c][seq].Path != plans[0][seq].Path {
				t.Fatalf("seq %d: client %d path %q != client 0 path %q",
					seq, c, plans[c][seq].Path, plans[0][seq].Path)
			}
		}
		if seq > 0 && plans[0][seq].Path == plans[0][seq-1].Path {
			t.Fatalf("seq %d reuses the previous round's path %q", seq, plans[0][seq].Path)
		}
	}
}

// TestPlanProfileAssignment checks the weight-proportional slicing:
// with weights 3:1 over 8 clients, 6 run the first profile.
func TestPlanProfileAssignment(t *testing.T) {
	sc, err := ParseScenario([]byte(`{"name": "w", "seed": 5, "clients": 8, "requests": 1, "profiles": [
		{"kind": "zoom", "weight": 3, "dataset": "d"},
		{"kind": "upload", "weight": 1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	plans, err := Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	zoom := 0
	for _, reqs := range plans {
		if reqs[0].Tool == "kdv" {
			zoom++
		}
	}
	if zoom != 6 {
		t.Fatalf("zoom clients = %d, want 6 of 8 (weight 3:1)", zoom)
	}
}

// TestPlanUploadNamesAreUnique guards the cold-upload path: every
// upload in a plan must target a distinct dataset name, or "cold"
// uploads would silently become re-uploads.
func TestPlanUploadNamesAreUnique(t *testing.T) {
	sc, err := ParseScenario([]byte(`{"name": "u", "seed": 11, "clients": 3, "requests": 4,
		"profiles": [{"kind": "upload", "points": 10}]}`))
	if err != nil {
		t.Fatal(err)
	}
	plans, err := Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, reqs := range plans {
		for _, r := range reqs {
			if r.Method != "POST" || !strings.HasPrefix(r.Path, "/v1/datasets/cold-") {
				t.Fatalf("unexpected upload request %s %s", r.Method, r.Path)
			}
			if seen[r.Path] {
				t.Fatalf("duplicate upload target %s", r.Path)
			}
			seen[r.Path] = true
		}
	}
}
