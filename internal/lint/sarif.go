package lint

import (
	"encoding/json"
	"path/filepath"

	"geostat/internal/lint/analysis"
)

// SARIF 2.1.0 output (static analysis results interchange format), the
// subset GitHub code scanning consumes: one run, one tool, one rule per
// analyzer, one result per finding. Every analyzer gates, so every rule
// and result is level "error".

const (
	sarifSchema  = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
	sarifVersion = "2.1.0"
)

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID                   string       `json:"id"`
	ShortDescription     sarifMessage `json:"shortDescription"`
	DefaultConfiguration sarifConfig  `json:"defaultConfiguration"`
}

type sarifConfig struct {
	Level string `json:"level"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

const sarifLevel = "error"

// SARIF renders findings as a SARIF 2.1.0 log. analyzers defines the
// rule table (every analyzer that ran, findings or not — code scanning
// uses the table to show rule metadata), in the given order.
func SARIF(analyzers []*analysis.Analyzer, findings []Finding) ([]byte, error) {
	rules := make([]sarifRule, len(analyzers))
	index := make(map[string]int, len(analyzers))
	for i, a := range analyzers {
		rules[i] = sarifRule{
			ID:                   a.Name,
			ShortDescription:     sarifMessage{Text: a.Doc},
			DefaultConfiguration: sarifConfig{Level: sarifLevel},
		}
		index[a.Name] = i
	}
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:    f.Analyzer,
			RuleIndex: index[f.Analyzer],
			Level:     sarifLevel,
			Message:   sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(f.File)},
					Region:           sarifRegion{StartLine: f.Line, StartColumn: f.Col},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  sarifSchema,
		Version: sarifVersion,
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "geolint", Rules: rules}},
			Results: results,
		}},
	}
	return json.MarshalIndent(log, "", "  ")
}
