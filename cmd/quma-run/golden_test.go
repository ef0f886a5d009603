package main

// Golden tests for quma-run's report: each case runs the command in
// process and compares its stdout byte for byte, and its exit status,
// with the snapshot under testdata/golden/. The cases cover one shot,
// the unsharded and sharded shot ranges, both backends, lane and worker
// counts, replay on and off, the data collection unit, the timeline, a
// replay-safe and a feedback program, binary input and failing runs.
// Regenerate deliberately with
//
//	go test -run TestGolden -update ./cmd/quma-run

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden outputs under testdata/golden/ instead of diffing against them")

var goldenCases = []struct {
	name string
	exit int // 0 success, 1 failed run, 2 malformed command line
	args []string
}{
	{"shots1", 0, []string{"testdata/safe.qasm"}},
	{"shots200", 0, []string{"-shots", "200", "testdata/safe.qasm"}},
	{"shots600", 0, []string{"-shots", "600", "testdata/safe.qasm"}},
	{"traj200", 0, []string{"-backend", "trajectory", "-shots", "200", "testdata/safe.qasm"}},
	{"traj600_lanes8", 0, []string{"-backend", "trajectory", "-shots", "600", "-lanes", "8", "testdata/safe.qasm"}},
	{"traj600_lanes8_workers1", 0, []string{"-backend", "trajectory", "-shots", "600", "-lanes", "8", "-shot-workers", "1", "testdata/safe.qasm"}},
	{"traj600_lanes0", 0, []string{"-backend", "trajectory", "-shots", "600", "-lanes", "0", "-shot-workers", "0", "testdata/safe.qasm"}},
	{"replay_off600", 0, []string{"-replay", "off", "-shots", "600", "testdata/safe.qasm"}},
	{"replay_compiled600", 0, []string{"-replay", "compiled", "-shots", "600", "-backend", "trajectory", "-lanes", "8", "testdata/safe.qasm"}},
	{"replay_interp200", 0, []string{"-replay", "interp", "-shots", "200", "testdata/safe.qasm"}},
	{"collect1_shots1", 0, []string{"-collect", "1", "testdata/safe.qasm"}},
	{"collect1_200", 0, []string{"-collect", "1", "-shots", "200", "testdata/safe.qasm"}},
	{"collect2_600", 0, []string{"-collect", "2", "-shots", "600", "-backend", "trajectory", "-lanes", "8", "testdata/safe.qasm"}},
	{"trace_shots1", 0, []string{"-trace", "testdata/safe.qasm"}},
	{"trace_shots4", 0, []string{"-trace", "-shots", "4", "-qubits", "2", "testdata/safe.qasm"}},
	{"feedback1", 0, []string{"testdata/feedback.qasm"}},
	{"feedback200", 0, []string{"-shots", "200", "testdata/feedback.qasm"}},
	{"feedback600", 0, []string{"-shots", "600", "-backend", "trajectory", "-lanes", "8", "-collect", "2", "testdata/feedback.qasm"}},
	{"feedback600_off", 0, []string{"-shots", "600", "-replay", "off", "-shot-workers", "1", "testdata/feedback.qasm"}},
	{"bin300", 0, []string{"-bin", "-shots", "300", "testdata/safe.bin"}},
	{"amperr300", 0, []string{"-amp-error", "0.1", "-seed", "7", "-qubits", "2", "-shots", "300", "testdata/safe.qasm"}},
	{"late3", 1, []string{"-shots", "3", "testdata/late.qasm"}},
	{"late600", 1, []string{"-shots", "600", "testdata/late.qasm"}},
	{"badop", 1, []string{"testdata/badop.qasm"}},
	{"shots0", 1, []string{"-shots", "0", "testdata/safe.qasm"}},
	{"noargs", 2, nil},
}

func TestGolden(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			var stdout bytes.Buffer
			err := run(c.args, &stdout)
			exit := 0
			var ue usageError
			switch {
			case errors.As(err, &ue):
				exit = 2
			case err != nil:
				exit = 1
			}
			if exit != c.exit {
				t.Fatalf("exit status %d (err %v), want %d", exit, err, c.exit)
			}
			path := filepath.Join("testdata", "golden", c.name+".txt")
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("stdout differs from %s\ngot:\n%s\nwant:\n%s", path, stdout.Bytes(), want)
			}
		})
	}
}
