package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program
// in step: the metric lists it declares are exactly the ones the JSON
// line carries, and its workloads are the ones the program runs.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
	}
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	names := func(ns []named) []string {
		out := make([]string, len(ns))
		for i, n := range ns {
			out[i] = n.Name
		}
		return out
	}
	if got := names(b.Workloads); !slices.Equal(got, workloads) {
		t.Errorf("workloads %v, program runs %v", got, workloads)
	}
	if got := names(b.EndToEnd); !slices.Equal(got, e2eMetrics) {
		t.Errorf("end_to_end %v, program reports %v", got, e2eMetrics)
	}
	if got := names(b.PerLayer); !slices.Equal(got, layerMetrics) {
		t.Errorf("per_layer %v, program reports %v", got, layerMetrics)
	}
}
