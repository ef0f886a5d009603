// Command perfbench is the QuMA benchmark: one command that drives the
// public entry points of the repository end to end and, in a separate
// traced run, layer by layer.
//
//	bash perfbench/run.sh --workload serve_mixed --seed 1 --seconds 10 --trace 0
//
// Three workloads, each chosen to stress a different layer:
//
//   - serve_mixed: cold three-experiment batches (t1 on density, rb and
//     asm on trajectory) through an in-process service.Server with a
//     fsync'd journal, two closed-loop clients over loopback HTTP. Every
//     job misses the result cache, so the cost is machine reset, lead
//     shots, replay compile and GC.
//   - serve_small: one tiny asm experiment per job against the same
//     server. A seeded schedule makes exactly three quarters of the
//     submissions repeats of a catalogue warmed before timing (cache
//     hits) and one quarter fresh (journal writes and the queue), so the
//     front end does nearly all the work.
//   - job_replay: one large replay-safe repetition-code round (encode,
//     CNOT syndrome extraction, measure, no feedback) run repeatedly
//     through service.Execute with two shot workers and eight batch lanes.
//     Replay compile and the batched span kernels do the work.
//
// With --trace 0 every workload reports the same six end-to-end metrics.
// For the serve workloads a job is one HTTP submission: latency runs
// from the submit to the last result byte, experiments_per_s counts the
// experiments of completed jobs over the window, and shots_per_s the
// shots those experiments simulated (cache hits simulate none). For
// job_replay a job is one service.Execute call: shots_per_s is the
// median over the window's jobs of shots divided by wall time, and
// latency is the call's wall time. setup_s is the median of five
// set-ups (server or Env construction plus warm-up) and peak_rss_mb the
// process's high-water RSS.
//
// With --trace 1 the run measures the workload untraced and traced
// (spans recorded from outside at each layer boundary, interleaved so
// that drift affects both alike) and then replays the workload's
// traffic through the public functions of each layer, reporting the
// per-layer metrics and writing the spans to .bench_build/perfbench/.
// The full pipeline is timed there shot by shot on examples/feedback's
// active-reset cycle, which replay cannot take.
//
// Every run checks its outputs: served results are compared byte for
// byte with an in-process service.Execute of the same request, job
// results against SHA-256 digests recorded in pins.json, and model
// statistics (instructions, pulses and measurements per shot, replay
// engagement, the fitted T1 and RB error of the reference request)
// against the values recorded there. A simulator-only change must leave
// every pin identical; the model itself is not validated against
// hardware. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome accumulates a run's operation counts and metrics.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]metric)} }

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{Value: v, Unit: unit} }

// fail records one failed operation with the reason, printed to stderr.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// invalid records a check that voids the run without being an operation
// of its own (a pin or a schedule share that did not hold).
func (o *outcome) invalid(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	writePins bool
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"serve_mixed": runServe,
	"serve_small": runServe,
	"job_replay":  runJob,
}

func main() {
	var (
		o     options
		trace int
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: serve_mixed, serve_small or job_replay")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed generates the same requests")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.BoolVar(&o.writePins, "write-pins", false, "recompute the recorded result digests and model statistics and print pins.json to stdout (after a deliberate model change)")
	flag.Parse()
	o.trace = trace == 1

	if o.writePins {
		if err := writePins(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(report{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// millis converts a duration to float milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
