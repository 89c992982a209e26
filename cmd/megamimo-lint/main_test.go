package main

import (
	"encoding/json"
	"testing"

	"megamimo/internal/lint"
)

// TestSARIFLog decodes the -sarif document as a consumer would: a 2.1.0
// log whose one run names the megamimo-lint driver and holds one result
// per diagnostic.
func TestSARIFLog(t *testing.T) {
	diags := []lint.Diagnostic{{File: "a.go", Line: 3, Col: 2, Analyzer: "units", Message: "strips units"}}
	b, err := json.Marshal(sarifLog(lint.All(), diags))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name string `json:"name"`
				} `json:"driver"`
			} `json:"tool"`
			Results []json.RawMessage `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != "2.1.0" || len(doc.Runs) != 1 {
		t.Fatalf("version %q with %d runs, want 2.1.0 with 1", doc.Version, len(doc.Runs))
	}
	if r := doc.Runs[0]; r.Tool.Driver.Name != "megamimo-lint" || len(r.Results) != len(diags) {
		t.Errorf("driver %q with %d results, want megamimo-lint with %d", r.Tool.Driver.Name, len(r.Results), len(diags))
	}
}
