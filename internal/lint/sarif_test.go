package lint

import (
	"encoding/json"
	"testing"

	"geostat/internal/lint/analysis"
)

func sarifFixture() ([]*analysis.Analyzer, []Finding) {
	gate := &analysis.Analyzer{Name: "gatecheck", Doc: "a gating analyzer"}
	other := &analysis.Analyzer{Name: "othercheck", Doc: "another gating analyzer"}
	findings := []Finding{
		{
			Diagnostic: analysis.Diagnostic{Analyzer: "gatecheck", Message: "boom"},
			File:       "pkg/a.go", Line: 3, Col: 7,
		},
		{
			Diagnostic: analysis.Diagnostic{Analyzer: "othercheck", Message: "hmm"},
			File:       "pkg/b.go", Line: 12, Col: 1,
		},
	}
	return []*analysis.Analyzer{gate, other}, findings
}

// TestSARIFStructure decodes the emitted SARIF as generic JSON and
// asserts the 2.1.0 shape code scanning requires: schema/version, a rule
// per analyzer, results with ruleId/ruleIndex/level/locations.
func TestSARIFStructure(t *testing.T) {
	analyzers, findings := sarifFixture()
	raw, err := SARIF(analyzers, findings)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if v := doc["version"]; v != "2.1.0" {
		t.Errorf("version = %v, want 2.1.0", v)
	}
	if s, _ := doc["$schema"].(string); s == "" {
		t.Error("missing $schema")
	}
	runs := doc["runs"].([]any)
	if len(runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(runs))
	}
	run := runs[0].(map[string]any)
	driver := run["tool"].(map[string]any)["driver"].(map[string]any)
	if driver["name"] != "geolint" {
		t.Errorf("driver name = %v", driver["name"])
	}
	rules := driver["rules"].([]any)
	if len(rules) != 2 {
		t.Fatalf("rules = %d, want 2", len(rules))
	}
	if id := rules[0].(map[string]any)["id"]; id != "gatecheck" {
		t.Errorf("rule 0 id = %v", id)
	}
	for i, r := range rules {
		if lvl := r.(map[string]any)["defaultConfiguration"].(map[string]any)["level"]; lvl != "error" {
			t.Errorf("rule %d level = %v, want error", i, lvl)
		}
	}

	results := run["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	res0 := results[0].(map[string]any)
	if res0["ruleId"] != "gatecheck" || res0["level"] != "error" {
		t.Errorf("result 0 = %v", res0)
	}
	if idx := res0["ruleIndex"].(float64); idx != 0 {
		t.Errorf("result 0 ruleIndex = %v", idx)
	}
	loc := res0["locations"].([]any)[0].(map[string]any)["physicalLocation"].(map[string]any)
	if uri := loc["artifactLocation"].(map[string]any)["uri"]; uri != "pkg/a.go" {
		t.Errorf("uri = %v", uri)
	}
	if line := loc["region"].(map[string]any)["startLine"].(float64); line != 3 {
		t.Errorf("startLine = %v", line)
	}
	res1 := results[1].(map[string]any)
	if res1["ruleId"] != "othercheck" || res1["level"] != "error" || res1["ruleIndex"].(float64) != 1 {
		t.Errorf("result 1 = %v", res1)
	}
}

// TestSARIFEmptyFindings: an all-clean run still emits the full rule
// table and an empty (not null) results array.
func TestSARIFEmptyFindings(t *testing.T) {
	analyzers, _ := sarifFixture()
	raw, err := SARIF(analyzers, nil)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs []struct {
			Results []any `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Runs[0].Results == nil {
		t.Error("results is null; code scanning wants an empty array")
	}
}
