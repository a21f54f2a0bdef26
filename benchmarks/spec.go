package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricSpec is one metric of BENCHMARK.json: the name a run emits, its
// unit, which direction is better, and (end-to-end only) the share of the
// parent's median by which it may worsen before a change is rejected.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec mirrors BENCHMARK.json. The file is the one place metric
// names, units and bounds are written down; the program reads it rather
// than repeating them.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metricValue is one emitted measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// selectMetrics picks the listed metrics out of measured, attaching
// units. A listed metric that was not measured is an error: the contract
// is that every run prints every metric of its list.
func selectMetrics(list []metricSpec, measured map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(list))
	for _, m := range list {
		v, ok := measured[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q was not measured", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out, nil
}
