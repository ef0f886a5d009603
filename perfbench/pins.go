package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"quma/internal/expt"
	"quma/internal/service"
)

// pinsJSON holds what a run of unchanged physics must reproduce exactly:
// the served-document digest of every job_replay variant and each
// workload's model statistics. Regenerate it with --write-pins only for
// a deliberate change to the model or the result schema.
//
//go:embed pins.json
var pinsJSON []byte

type pins struct {
	// Results maps job_replay to the hex SHA-256 of the result document
	// ({"results": [...]}, as the service serves it) of each machine-seed
	// variant.
	Results map[string][jobVariants]string `json:"results"`
	// Model maps a workload to its pinned per-layer metrics.
	Model map[string]map[string]float64 `json:"model"`
}

// pinnedMetrics are the per-layer metrics that are model statistics:
// identical for any change that only makes the simulator faster.
var pinnedMetrics = []string{
	"exec.instrs_per_shot",
	"exec.pulses_per_shot",
	"exec.measurements_per_shot",
	"replay.replayed_share",
	"replay.overhead_shots",
	"model.t1_fit",
	"model.rb_error_per_clifford",
}

func loadPins() (*pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return &p, nil
}

// checkPins voids the run if a model statistic differs from its pin.
func checkPins(workload string, out *outcome) error {
	p, err := loadPins()
	if err != nil {
		return err
	}
	want, ok := p.Model[workload]
	if !ok {
		return fmt.Errorf("pins.json: no model statistics for %s", workload)
	}
	for _, name := range pinnedMetrics {
		if got := out.metrics[name].Value; got != want[name] {
			out.invalid("model statistic %s = %v, pinned %v", name, got, want[name])
		}
	}
	return nil
}

// documentDigest is the hex SHA-256 of the result document the service
// serves for a job with these results.
func documentDigest(results ...json.RawMessage) (string, error) {
	doc, err := expectedDocument(results)
	if err != nil {
		return "", err
	}
	return hexSHA(doc), nil
}

// writePins recomputes every pin and prints pins.json to stdout.
func writePins() error {
	p := pins{Results: make(map[string][jobVariants]string), Model: make(map[string]map[string]float64)}
	for _, w := range workloadNames() {
		out := newOutcome()
		if err := layerRun(w, [][]service.ExperimentRequest{reference(w)}, newTracer(), out); err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		if len(out.problems) > 0 {
			return fmt.Errorf("%s: %v", w, out.problems)
		}
		p.Model[w] = make(map[string]float64)
		for _, name := range pinnedMetrics {
			p.Model[w][name] = out.metrics[name].Value
		}
		if w != "job_replay" {
			continue
		}
		var digests [jobVariants]string
		for v := range digests {
			res, err := service.Execute(context.Background(), expt.NewEnv(), jobRequest(v)[0])
			if err != nil {
				return fmt.Errorf("%s variant %d: %w", w, v, err)
			}
			if digests[v], err = documentDigest(res); err != nil {
				return err
			}
		}
		p.Results[w] = digests
	}
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(os.Stdout, "%s\n", b)
	return err
}
