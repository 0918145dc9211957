package lint

import (
	"cmp"
	"encoding/json"
	"io"
	"slices"
	"sort"
	"strings"
)

// FileDiagnostic pairs a diagnostic with the file it was found in (empty
// when the source had no file, e.g. stdin).
type FileDiagnostic struct {
	File string `json:"file,omitempty"`
	Diagnostic
}

// SortFileDiagnostics orders diagnostics file-major, then by the
// canonical per-file order (position with unknown last, code, subject) —
// the deterministic presentation every front end promises.
func SortFileDiagnostics(ds []FileDiagnostic) {
	slices.SortStableFunc(ds, func(a, b FileDiagnostic) int {
		return cmp.Or(strings.Compare(a.File, b.File), compareDiagnostics(a.Diagnostic, b.Diagnostic))
	})
}

// The SARIF 2.1.0 subset gemlint emits. Field order follows the struct
// declarations, so output is byte-stable for a given diagnostic slice.
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
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           *sarifRegion  `json:"region,omitempty"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIFAs renders the diagnostics as a SARIF 2.1.0 log with one
// run, attributed to the named tool in the driver block (gemlint and
// gemgo emit the same log format under their own names). Only the rules
// that actually fired are listed, sorted by id, with descriptions from
// the shared code registry; results keep the input order (callers sort
// with SortFileDiagnostics first).
func WriteSARIFAs(w io.Writer, tool string, diags []FileDiagnostic) error {
	fired := map[Code]bool{}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		fired[d.Code] = true
		level := "warning"
		if d.Severity == SeverityError {
			level = "error"
		}
		r := sarifResult{
			RuleID:  string(d.Code),
			Level:   level,
			Message: sarifMessage{Text: d.Subject + ": " + d.Message},
		}
		if d.File != "" {
			phys := sarifPhysical{ArtifactLocation: sarifArtifact{URI: d.File}}
			// SARIF 2.1.0 line/column numbers are 1-based; a diagnostic
			// with no source position (Pos.IsZero) must omit the region
			// entirely rather than emit "startLine": 0, and a known line
			// with an unknown column omits just the column.
			if d.Pos.Line >= 1 {
				region := &sarifRegion{StartLine: d.Pos.Line}
				if d.Pos.Col >= 1 {
					region.StartColumn = d.Pos.Col
				}
				phys.Region = region
			}
			r.Locations = []sarifLocation{{PhysicalLocation: phys}}
		}
		results = append(results, r)
	}
	rules := make([]sarifRule, 0, len(fired))
	for code := range fired {
		info, _ := Info(code)
		rules = append(rules, sarifRule{
			ID:               string(code),
			ShortDescription: sarifMessage{Text: info.Summary},
		})
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:           tool,
				InformationURI: "https://example.invalid/gem",
				Rules:          rules,
			}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&log)
}
