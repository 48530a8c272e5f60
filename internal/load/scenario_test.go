package load

import (
	"strings"
	"testing"
)

func TestParseScenarioAppliesDefaultsAndValidates(t *testing.T) {
	sc, err := ParseScenario([]byte(`{"name": "mini", "seed": 7, "profiles": [{"kind": "zoom", "dataset": "hot"}]}`))
	if err != nil {
		t.Fatalf("ParseScenario: %v", err)
	}
	if sc.Clients != 4 || sc.Requests != 10 {
		t.Fatalf("defaults not applied: clients=%d requests=%d", sc.Clients, sc.Requests)
	}
	p := sc.Profiles[0]
	if p.Weight != 1 || p.Tiles != 64 || p.ZipfS != 1.2 || p.Width != 64 || p.Height != 64 {
		t.Fatalf("profile defaults not applied: %+v", p)
	}
}

func TestParseScenarioRejectsBadInput(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"unknown field", `{"seed": 1, "bogus": 2, "profiles": [{"kind": "upload"}]}`, "bogus"},
		{"not json", "name: x\nseed: 1\nprofiles:\n  - kind: upload", "parse scenario"},
		{"missing seed", `{"name": "x", "profiles": [{"kind": "upload"}]}`, "seed must be set"},
		{"no profiles", `{"seed": 1, "clients": 2}`, "at least one profile"},
		{"unknown kind", `{"seed": 1, "profiles": [{"kind": "ddos"}]}`, "unknown kind"},
		{"missing dataset", `{"seed": 1, "profiles": [{"kind": "zoom"}]}`, "dataset is required"},
		{"flat zipf", `{"seed": 1, "profiles": [{"kind": "zoom", "dataset": "d", "zipf_s": 0.5}]}`, "zipf_s must be > 1"},
		{"empty setup", `{"seed": 1, "setup": [{"generate": ""}], "profiles": [{"kind": "upload"}]}`, "generate query string is empty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseScenario([]byte(tc.src))
			if err == nil {
				t.Fatal("ParseScenario succeeded, want error")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestCommittedScenariosParse keeps the checked-in scenario files valid:
// a scenario that stops parsing should fail here, not in CI's load job.
func TestCommittedScenariosParse(t *testing.T) {
	for _, path := range []string{"../../scenarios/smoke.json", "../../scenarios/hammer.json"} {
		sc, err := parseScenarioFile(t, path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if _, err := Plan(sc); err != nil {
			t.Fatalf("%s: Plan: %v", path, err)
		}
	}
}
