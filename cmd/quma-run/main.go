// Command quma-run executes a QuMA assembly program on the simulated
// control box + transmon chip and reports the machine state afterwards:
// registers, measurement counts, averaged integration results, and
// (optionally) the deterministic-domain event timeline.
//
// Every run goes through the experiments' shot runner (expt.Env.RunShots)
// on pooled machines, so quma-run shares its seeds, shard plan, lane
// grouping and merge order with every experiment. With -shots N > 1 the
// program runs N times through the shot-replay engine (internal/replay):
// the classical pipeline is simulated for the leading shots and, when the
// program is detected replay-safe, the recorded quantum schedule is
// replayed for the rest — bit-identical results, order-of-magnitude
// faster on shot-heavy programs. -replay=off forces full per-shot
// simulation. Note that replayed shots perform no classical execution, so
// final register contents reflect the last fully simulated shot; programs
// whose registers matter are detected unsafe and fall back automatically.
//
// Shot counts above expt.ShotShardSize are split across the fixed shot-
// shard plan (expt.ShotShardPlan): shard k runs on its own machine seeded
// DeriveSeed(seed, k), up to -shot-workers shards concurrently. The plan,
// seeds, and merge order depend only on the shot count, so results are
// bit-identical for any -shot-workers value. On the trajectory backend,
// -lanes L > 1 additionally runs groups of up to L equal-size shards in
// lockstep on the batched SoA executor (one lane per shard, same seeds,
// same streams — bit-identical results, higher throughput). Instruction,
// pulse, and measurement counters sum across shards; registers, final
// qubit state, and the timeline come from the last shard's machine; the
// data collection unit's averages merge exactly across the shards.
//
// Usage:
//
//	quma-run [-qubits N] [-backend density|trajectory] [-seed S] [-trace] [-collect K] prog.qasm
//	quma-run -shots 10000 -replay auto prog.qasm
//	quma-run -shots 100000 -shot-workers 8 prog.qasm
//	quma-run -backend trajectory -shots 100000 -lanes 8 prog.qasm
//	quma-run -cpuprofile cpu.pprof -shots 10000 prog.qasm
//	quma-run -bin prog.bin          # hex words from quma-asm
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"quma/internal/asm"
	"quma/internal/core"
	"quma/internal/expt"
	"quma/internal/isa"
	"quma/internal/readout"
	"quma/internal/replay"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	var ue usageError
	switch {
	case err == nil:
	case errors.As(err, &ue):
		if ue != "" {
			fmt.Fprintln(os.Stderr, ue)
		}
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "quma-run:", err)
		os.Exit(1)
	}
}

// usageError is a malformed command line; main exits 2 on it, as the
// flag package does, printing the message unless it is empty (the flag
// package has already reported the problem).
type usageError string

func (e usageError) Error() string { return string(e) }

// run executes one quma-run invocation, writing its report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("quma-run", flag.ContinueOnError)
	var (
		qubits      = fs.Int("qubits", 1, "number of simulated qubits (1-8 density, 1-16 trajectory)")
		backend     = fs.String("backend", "density", "quantum-state backend: density (exact, O(4^n)) or trajectory (Monte-Carlo statevector, O(2^n))")
		seed        = fs.Int64("seed", 1, "PRNG seed")
		trace       = fs.Bool("trace", false, "print the deterministic-domain event timeline")
		collect     = fs.Int("collect", 0, "enable the data collection unit with K results per round")
		amperr      = fs.Float64("amp-error", 0, "fractional pulse amplitude miscalibration ε")
		binary      = fs.Bool("bin", false, "input is a binary (hex words) produced by quma-asm")
		shots       = fs.Int("shots", 1, "number of times to run the program on one machine (the shot loop of an experiment)")
		shotWorkers = fs.Int("shot-workers", 0, "bound on concurrent shot shards when -shots exceeds the shard threshold (0 = one per CPU); results are bit-identical for any value")
		lanes       = fs.Int("lanes", 0, "run groups of up to this many equal-size shot shards in lockstep on the batched SoA trajectory executor (0 or 1 = scalar shards); results are bit-identical for any value")
		replayMode  = fs.String("replay", "auto", "shot-replay engine mode: auto (replay the compiled schedule when safe; compiled and interp are other spellings of auto) or off (full simulation per shot)")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usageError("")
	}
	if fs.NArg() != 1 {
		return usageError("usage: quma-run [flags] <prog.qasm>")
	}
	// Validate flag values up front with a clear non-zero exit: an
	// unknown backend or replay mode, or a non-positive shot count, must
	// never silently fall back to a default.
	mode, err := validateFlags(*backend, *replayMode, *shots, *shotWorkers, *lanes)
	if err != nil {
		return err
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	cfg := core.DefaultConfig()
	cfg.NumQubits = *qubits
	cfg.Backend = core.Backend(*backend)
	cfg.Seed = *seed
	cfg.CollectK = *collect
	cfg.AmplitudeError = *amperr
	cfg.TraceEvents = *trace

	var prog *isa.Program
	if *binary {
		prog, err = decodeHex(string(src))
	} else {
		prog, err = asm.Assemble(string(src))
	}
	if err != nil {
		return err
	}

	// finish copies what the report needs out of each shard's machine
	// before the machine goes back to the pool: counters and collectors
	// from every shard, the final machine state from the last.
	plan := expt.ShotShardPlan(*shots)
	n := max(len(plan), 1)
	steps := make([]uint64, n)
	pulses := make([]uint64, n)
	measurements := make([]uint64, n)
	cols := make([]*readout.DataCollector, n)
	var (
		regs      [isa.NumRegs]int64
		probs     []float64
		footprint int
		timeline  []core.TraceEntry
	)
	stats, err := expt.NewEnv().RunShots(context.Background(), cfg, prog, *shots, *shotWorkers, *lanes, mode,
		func(k int, m *core.Machine, _ replay.Stats) error {
			steps[k], pulses[k], measurements[k] = m.Controller.Steps, m.PulsesPlayed, m.Measurements
			if m.Collector != nil {
				cols[k] = m.Collector.Clone()
			}
			if k == n-1 {
				regs = m.Controller.Regs
				for q := 0; q < *qubits; q++ {
					probs = append(probs, m.State.ProbExcited(q))
				}
				footprint = m.MemoryFootprintBytes()
				timeline = m.Trace()
			}
			return nil
		})
	if err != nil {
		return err
	}

	if plan != nil {
		// Lead/Overhead come from the merged engine stats: overhead is
		// the recording cost sharding added over an unsharded run.
		fmt.Fprintf(stdout, "shot-shard plan: %d shards of ≤%d shots (%d lead/detect shots, %d sharding overhead)\n",
			len(plan), expt.ShotShardSize, stats.Lead, stats.Overhead)
	}
	if *shots > 1 {
		if stats.Safe {
			fmt.Fprintf(stdout, "shot-replay engine: %d/%d shots replayed from the compiled schedule\n", stats.Replayed, stats.Shots)
		} else {
			fmt.Fprintf(stdout, "shot-replay engine: full simulation (%s)\n", stats.Reason)
		}
	}
	fmt.Fprintf(stdout, "program completed: %d instructions executed\n", sum(steps))
	fmt.Fprintf(stdout, "pulses played: %d, measurements: %d\n", sum(pulses), sum(measurements))
	fmt.Fprintf(stdout, "CTPG memory footprint: %d bytes (12-bit samples)\n", footprint)
	fmt.Fprintln(stdout, "registers:")
	for r, v := range regs {
		if v != 0 {
			fmt.Fprintf(stdout, "  r%-2d = %d\n", r, v)
		}
	}
	for q, p := range probs {
		fmt.Fprintf(stdout, "qubit %d final P(|1>) = %.4f\n", q, p)
	}
	if cols[0] != nil {
		merged := readout.MergeCollectors(cols)
		fmt.Fprintf(stdout, "data collection unit: %d complete rounds, averages:\n", merged.Rounds())
		for i, avg := range merged.Averages() {
			fmt.Fprintf(stdout, "  S[%d] = %.4f\n", i, avg)
		}
	}
	if *trace {
		fmt.Fprintln(stdout, "deterministic-domain timeline:")
		for _, e := range timeline {
			fmt.Fprintln(stdout, "  "+e.String())
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

// decodeHex decodes a quma-asm binary: one hex instruction word per
// line, blank lines and #-comments ignored.
func decodeHex(src string) (*isa.Program, error) {
	var words []uint32
	for lineNo, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var word uint32
		if _, err := fmt.Sscanf(line, "%x", &word); err != nil {
			return nil, fmt.Errorf("line %d: %q is not a hex word", lineNo+1, line)
		}
		words = append(words, word)
	}
	return isa.DecodeProgram(words, isa.StandardSymbols())
}

func sum(xs []uint64) uint64 {
	var t uint64
	for _, x := range xs {
		t += x
	}
	return t
}

// validateFlags rejects unknown -backend/-replay values, non-positive
// -shots, and negative -shot-workers/-lanes before any machine is
// built, so a typo fails loudly instead of silently running under a
// default.
func validateFlags(backend, replayMode string, shots, shotWorkers, lanes int) (replay.Mode, error) {
	if shots < 1 {
		return "", fmt.Errorf("-shots must be positive, got %d", shots)
	}
	if shotWorkers < 0 {
		return "", fmt.Errorf("-shot-workers must be non-negative (0 selects one per CPU), got %d", shotWorkers)
	}
	if lanes < 0 {
		return "", fmt.Errorf("-lanes must be non-negative (0 and 1 select scalar shard execution), got %d", lanes)
	}
	switch core.Backend(backend) {
	case core.BackendDensity, core.BackendTrajectory:
	default:
		return "", fmt.Errorf("unknown -backend %q (want %q or %q)", backend, core.BackendDensity, core.BackendTrajectory)
	}
	mode, err := replay.ParseMode(replayMode)
	if err != nil {
		return "", fmt.Errorf("invalid -replay value: %w", err)
	}
	return mode, nil
}
