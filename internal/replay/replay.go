// Package replay implements the shot-replay execution engine: the
// record/replay split that exploits the paper's own architectural divide
// between a deterministic classical microarchitecture and a stochastic
// quantum substrate.
//
// For feedback-free programs, every shot's trip through fetch/decode, the
// physical microcode unit, the QMB, and the timing-control queues is
// bit-identical; only the quantum substrate (PRNG-driven channel
// unwinding, projection, readout noise) differs. The engine therefore:
//
//   - Records: runs leading shots through the full pipeline, capturing the
//     timestamped quantum event schedule via core.Probe — idle-advance
//     channel applications, pulse rotations, two-qubit flux unitaries, and
//     measurement chains, in deterministic-domain order.
//   - Detects: conservatively decides whether the schedule is
//     shot-invariant. Two conditions must hold: (1) the execution
//     controller observed no classical consumption of a measurement
//     result or of cross-shot register/memory state
//     (exec.Controller.ReplayUnsafeReason), and (2) the schedules of two
//     consecutive steady-state shots are identical — which also catches
//     timing-induced variation such as SSB-phase drift when the shot
//     period is not a multiple of the modulation period.
//   - Compiles and replays: the schedule is lowered once into specialized
//     closure-free steps bound to the concrete backend type (see
//     compile.go): fused adjacent unitaries, hoisted per-schedule channel
//     pricing tables, population carries threaded between steps and
//     across shots, and devirtualized executors. The compiled form drives
//     the qphys.State backend directly for all remaining shots — no
//     assembler, no pipeline, no timing queues — preserving the exact
//     PRNG consumption order (channel sampling → projection → integration
//     noise, in TD order), so results are bit-identical to full
//     simulation. It is memoized on the machine's template
//     (core.Template.Compiled) and validated against each fresh
//     recording, so all machines of a template compile each program
//     once.
//
// One engine (RunBatch; Run is its one-lane form) drives every shot job.
// It runs the lead/detect shots once per lane, then finishes each lane
// on the compiled executor of its backend — trajectory or density — or,
// when several trajectory lanes recorded the same schedule, all of them
// in lockstep on the batched SoA executor (see batch.go).
//
// Feedback programs (e.g. examples/feedback, the corrected repetition
// code) are detected as unsafe and transparently fall back to full
// per-shot simulation, as does a state backend without a compiled
// executor; correctness never depends on the detection saying yes, only
// performance does.
//
// Invariants replayed shots do NOT maintain: controller registers and
// data memory (no classical execution happens), the digital output unit's
// gating log, and the TraceEvents timeline. Anything consuming those must
// run with ModeOff. Experiment results flow through the data collection
// unit and the per-shot measurement callback, which replay maintains
// exactly.
package replay

import (
	"context"
	"fmt"

	"quma/internal/core"
	"quma/internal/isa"
	"quma/internal/qphys"
)

// Mode selects the engine behaviour.
type Mode string

const (
	// ModeAuto records leading shots and, when the program is detected
	// replay-safe, compiles the schedule once into specialized
	// closure-free steps bound to the concrete backend type (see
	// compile.go), then replays the compiled form for the remaining
	// shots (the default; "" means auto). Bit-identical to ModeOff
	// whenever the schedule separates same-qubit unitaries with at least
	// one channel application — every decoherent configuration. With
	// decoherence disabled, adjacent unitaries fuse into one precomputed
	// matrix (qphys.FuseUnitaries): amplitudes then agree to
	// floating-point rounding rather than bit-for-bit, which leaves
	// measured results identical in practice (regression-tested) but not
	// provably bit-exact.
	ModeAuto Mode = "auto"
	// ModeOff runs every shot through the full pipeline.
	ModeOff Mode = "off"
)

// ParseMode validates a mode string and resolves the default: the empty
// string selects ModeAuto, and so do "compiled" (once a separate mode
// that behaved exactly like auto) and "interp" (the retired op-by-op
// interpreter, bit-identical to compiled replay), so requests and
// journaled jobs that name them stay valid. Callers that accept a mode
// from the outside (flags, config) should reject anything ParseMode
// rejects instead of silently defaulting.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case "", ModeAuto, "compiled", "interp":
		return ModeAuto, nil
	case ModeOff:
		return ModeOff, nil
	}
	return "", fmt.Errorf("replay: unknown mode %q (want %q, %q or %q)", s, ModeAuto, "compiled", ModeOff)
}

// detectShots is the number of leading shots executed through the full
// pipeline in ModeAuto: shot 0 carries the cold-start transient (TD = 0,
// all qubits idle since construction, so its idle durations differ from
// every later shot); shots 1 and 2 are recorded and compared — two
// consecutive steady-state shots with identical schedules prove
// shot-invariance for all that follow.
const detectShots = 3

// ctxCheckShots is the bounded-staleness interval of the cancellation
// check inside the replayed shot loops: the context is consulted once
// every ctxCheckShots shots, so a cancellation or deadline preempts a
// sweep within that many shots (a compiled repcode shot is ~2.7µs, so
// the bound is well under a millisecond) while the per-shot cost of the
// check amortizes to nothing. Full-pipeline shots are individually slow
// enough that their loops check every shot instead.
const ctxCheckShots = 32

// MD is one per-qubit measurement of a shot: the addressed qubit and the
// binary discrimination result the controller would see.
type MD struct {
	Qubit  int
	Result int
}

// Options configures one engine run.
type Options struct {
	// Shots is the number of times the program is executed (the averaging
	// count that used to live in the assembly Round_Loop).
	Shots int
	// Mode selects full simulation vs record/replay ("" = ModeAuto).
	Mode Mode
	// OnShot, when non-nil, is invoked after every shot with the shot's
	// measurement results in deterministic-domain order. The slice is
	// reused across shots; copy it to retain.
	OnShot func(shot int, md []MD)
	// BaseShot offsets the shot indices reported to OnShot and in
	// preemption/error messages: the global index of this run's first
	// shot when the caller splits one logical shot range across several
	// Runs on separate machines (the expt shot-sharding engine).
	// Execution is unaffected — lead/detection shots, replay-safety
	// detection, and the ctx-check cadence are all relative to this
	// run's own local shot range.
	BaseShot int
}

// Stats reports what the engine did.
type Stats struct {
	// Shots is the total number executed (full + replayed).
	Shots int
	// Replayed counts shots executed by schedule replay.
	Replayed int
	// Safe reports whether the program was detected replay-safe (its
	// replayed shots then ran from the compiled schedule).
	Safe bool
	// Lead counts the full-pipeline lead/detect shots this run paid
	// before replay engaged. It is zero whenever replay did not engage
	// (ModeOff, unsafe programs, too few shots): those runs execute
	// every shot through the full pipeline anyway, so their leading
	// shots are ordinary work, not recording overhead.
	Lead int
	// Overhead counts lead shots attributable to shot-sharding: merged
	// job stats (Merge, in shard order) count every shard's lead shots
	// beyond the first shard's as overhead, since an unsharded run of
	// the same job would pay the lead exactly once. Always zero on the
	// stats of a single engine run.
	Overhead int
	// Reason explains why replay was not used (empty when Safe).
	Reason string
}

// Merge folds the stats of the next shard of a shot-sharded run into s,
// in shard order: shot counts add, Safe holds only if every shard held
// it (each shard detects independently; identical programs agree, so
// the AND is diagnostic, not lossy), and the first non-empty
// Reason is kept. Merging into a zero Stats adopts t wholesale.
func (s *Stats) Merge(t Stats) {
	if s.Shots == 0 {
		*s = t
		return
	}
	s.Shots += t.Shots
	s.Replayed += t.Replayed
	s.Lead += t.Lead
	// Every lead shot of a later shard is sharding overhead: the first
	// shard's recording would have covered the whole job unsharded.
	// (t.Lead already contains t.Overhead when t is itself a merged
	// aggregate, so this is not additive with t.Overhead.)
	s.Overhead += t.Lead
	s.Safe = s.Safe && t.Safe
	if s.Reason == "" {
		s.Reason = t.Reason
	}
}

// op kinds of a recorded schedule.
const (
	opIdle = iota
	opPulse
	opGate2
	opMeasure
)

// op is one recorded quantum operation. Matrices and Kraus slices alias
// the template's rotation/decoherence cache entries, which are immutable
// once built — the schedule stores no copies.
type op struct {
	kind  uint8
	q, qb int
	u     qphys.Matrix
	kraus []qphys.Matrix
}

// recorder implements core.Probe: it always collects per-shot measurement
// results (for OnShot delivery) and, when recording, appends the
// operation stream to the schedule.
type recorder struct {
	recording bool
	sched     []op
	md        []MD
}

func (r *recorder) Idle(q int, rz qphys.Matrix, kraus []qphys.Matrix) {
	if r.recording {
		r.sched = append(r.sched, op{kind: opIdle, q: q, u: rz, kraus: kraus})
	}
}

func (r *recorder) Pulse1(u qphys.Matrix, q int) {
	if r.recording {
		r.sched = append(r.sched, op{kind: opPulse, q: q, u: u})
	}
}

func (r *recorder) Gate2(u qphys.Matrix, qa, qb int) {
	if r.recording {
		r.sched = append(r.sched, op{kind: opGate2, q: qa, qb: qb, u: u})
	}
}

func (r *recorder) Measured(q, result int) {
	if r.recording {
		r.sched = append(r.sched, op{kind: opMeasure, q: q})
	}
	r.md = append(r.md, MD{Qubit: q, Result: result})
}

// sameMatrix reports whether two matrices are the same cached entry (or
// both empty). Matrices in a schedule come from the template's caches, so
// identical operations share backing storage, across every machine of
// the template; value-equal matrices from
// different cache entries compare unequal, which errs toward fallback.
func sameMatrix(a, b qphys.Matrix) bool {
	if a.N != b.N || len(a.Data) != len(b.Data) {
		return false
	}
	return len(a.Data) == 0 || &a.Data[0] == &b.Data[0]
}

// sameKraus reports whether two Kraus sets are the same cached slice.
func sameKraus(a, b []qphys.Matrix) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// schedulesEqual compares two recorded shot schedules operation by
// operation.
func schedulesEqual(a, b []op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.kind != y.kind || x.q != y.q || x.qb != y.qb {
			return false
		}
		if !sameMatrix(x.u, y.u) || !sameKraus(x.kraus, y.kraus) {
			return false
		}
	}
	return true
}

// BatchLane is one lane of an engine run: a machine with its own PRNG
// stream, lead/detect shots and result delivery. BaseShot and OnShot mean
// exactly what they mean in Options — per-lane global shot numbering and
// per-lane result delivery.
type BatchLane struct {
	M        *core.Machine
	BaseShot int
	OnShot   func(shot int, md []MD)
}

// Run executes the program Shots times on the machine, per Options.Mode:
// a one-lane RunBatch. The machine should be freshly constructed or
// ResetState so the engine owns its full deterministic timeline. Results
// (data collection unit, OnShot measurement streams,
// PulsesPlayed/Measurements counters) are bit-identical across modes for
// every program with decoherent qubits — replay only changes how fast
// they are produced. (The one qualified case: with decoherence disabled
// entirely, compiled replay fuses adjacent same-qubit unitaries, and
// results are float-equivalent rather than provably bit-exact — see
// ModeAuto.)
//
// Cancellation: a done ctx preempts the run between full-pipeline shots
// and, inside replayed loops, within ctxCheckShots shots, returning the
// wrapped ctx.Err() (errors.Is-matchable against context.Canceled /
// context.DeadlineExceeded). A preempted run produces no usable result;
// a run that returns nil error is bit-identical to one executed with a
// context that was never canceled — cancellation can only abort a run,
// never perturb it. The machine is left mid-timeline; ResetState returns
// it to a sound pooled state (enforced by expt's cancellation tests).
func Run(ctx context.Context, m *core.Machine, p *isa.Program, opts Options) (Stats, error) {
	lane := [1]BatchLane{{M: m, BaseShot: opts.BaseShot, OnShot: opts.OnShot}}
	var st [1]Stats
	err := runLanes(ctx, p, lane[:], opts.Shots, opts.Mode, st[:])
	return st[0], err
}

// RunBatch executes the program Shots times on every lane, preserving
// each lane's bit-exact equivalence to a standalone Run(lane.M, p,
// Options{Shots, Mode, OnShot, BaseShot}) — same PRNG consumption, same
// state evolution, same OnShot streams, same Stats. The returned slice
// holds one Stats per lane, index-aligned with lanes.
//
// Every lane runs its lead/detect shots on its own machine: they feed
// the lane's PRNG stream (cold-start transient, recording, comparison)
// and let each lane validate replay safety against its own controller
// and caches. Only the steady-state replayed shots can run batched, and
// only when there are several lanes, every lane independently detected
// safety, every lane's backend is the trajectory state, and every lane
// runs on lane 0's template and recorded the same schedule. Otherwise
// each lane finishes on its own: replayed on its backend's compiled
// executor, or through the full pipeline when it cannot replay. The two
// finishes are bit-identical — batching is only ever a throughput fast
// path, never a semantic one.
//
// Cancellation and failure abort the whole batch: the first error (a
// shot failure or a context preemption, in any lane) is returned and the
// remaining work of every lane is abandoned — callers treat the group as
// one failed job, which matches the sharded engine's cancel-the-siblings
// semantics. A panic unwinds with the machines mid-timeline; callers
// must discard them.
func RunBatch(ctx context.Context, p *isa.Program, lanes []BatchLane, shots int, mode Mode) ([]Stats, error) {
	stats := make([]Stats, len(lanes))
	return stats, runLanes(ctx, p, lanes, shots, mode, stats)
}

// laneState is the engine's per-lane scratch: the recorder attached as
// the lane machine's probe (its schedule is the one recorded at shot 2
// once the lead phase ends) and why the lane cannot replay ("" when it
// can).
type laneState struct {
	rec    recorder
	reason string
}

// runLanes is the engine behind Run and RunBatch, filling stats (one
// per lane) in place.
func runLanes(ctx context.Context, p *isa.Program, lanes []BatchLane, shots int, mode Mode, stats []Stats) error {
	if len(lanes) == 0 {
		return fmt.Errorf("replay: RunBatch requires at least one lane")
	}
	for i := range stats {
		stats[i].Shots = shots
	}
	if shots <= 0 {
		return fmt.Errorf("replay: Shots must be positive, got %d", shots)
	}
	mode, err := ParseMode(string(mode))
	if err != nil {
		return err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ls := make([]laneState, len(lanes))
	for i, ln := range lanes {
		ln.M.SetProbe(&ls[i].rec)
		ln.M.Controller.ResetReplayTracking()
	}
	// Machines go back to the pool (or are discarded) never with a live
	// probe, error paths included.
	defer clearProbes(lanes)

	// Lead/detect, once per lane: shot 0 carries the cold-start
	// transient, shots 1 and 2 are recorded and compared. ModeOff has no
	// lead — every shot is an ordinary full-pipeline shot.
	lead := 0
	if mode != ModeOff {
		lead = min(shots, detectShots)
	}
	batched := len(lanes) > 1
	for i, ln := range lanes {
		l := &ls[i]
		var s1 []op
		for shot := 0; shot < lead; shot++ {
			if shot == 2 {
				// A shot-invariant schedule records shot 1's length again.
				s1, l.rec.sched = l.rec.sched, make([]op, 0, len(l.rec.sched))
			}
			l.rec.recording = shot > 0
			if err := fullShot(ctx, p, &lanes[i], &l.rec, shot); err != nil {
				return err
			}
		}
		l.rec.recording = false
		switch {
		case mode == ModeOff:
			l.reason = "replay disabled"
		case shots <= detectShots:
			l.reason = "too few shots to amortize recording"
		default:
			l.reason = replayBlocker(ln.M, s1, l.rec.sched)
		}
		_, traj := ln.M.State.(*qphys.Trajectory)
		batched = batched && l.reason == "" && traj && ln.M.Template() == lanes[0].M.Template() &&
			schedulesEqual(ls[0].rec.sched, l.rec.sched)
	}
	if batched {
		return runLockstep(ctx, p, lanes, ls[0].rec.sched, lead, shots, stats)
	}

	// Per-lane completion: each lane finishes exactly as a standalone
	// one-lane run would from this point.
	for i := range lanes {
		ln, st := &lanes[i], &stats[i]
		if st.Reason = ls[i].reason; st.Reason != "" {
			for shot := lead; shot < shots; shot++ {
				if err := fullShot(ctx, p, ln, &ls[i].rec, shot); err != nil {
					return err
				}
			}
			continue
		}
		// Replay: drive the state backend directly from the steady-state
		// schedule, consuming the machine PRNG in exactly the recorded
		// order.
		st.Safe, st.Lead = true, lead
		ln.M.SetProbe(nil)
		comp := memoizedCompile(ln.M, p, ls[i].rec.sched)
		if st.Replayed, err = comp.run(ctx, ln.M, ln.BaseShot, lead, shots, ln.OnShot); err != nil {
			return err
		}
	}
	return nil
}

// fullShot runs one shot of a lane through the full pipeline: the ctx
// gate, the recorder's per-shot MD reset, OnShot delivery, and error
// decoration with the lane's global shot index.
func fullShot(ctx context.Context, p *isa.Program, ln *BatchLane, rec *recorder, shot int) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("replay: preempted before shot %d: %w", ln.BaseShot+shot, err)
	}
	rec.md = rec.md[:0]
	if err := ln.M.RunProgram(p); err != nil {
		return fmt.Errorf("replay: shot %d: %w", ln.BaseShot+shot, err)
	}
	if ln.OnShot != nil {
		ln.OnShot(ln.BaseShot+shot, rec.md)
	}
	return nil
}

// replayBlocker returns why a machine whose lead shots recorded the
// steady-state schedules s1 and s2 must finish through the full
// pipeline, or "" when it can replay: the program consumed a measurement
// or cross-shot classical state, the schedule is not shot-invariant, or
// the state backend has no compiled executor (compiled.run serves the
// trajectory and density states only).
func replayBlocker(m *core.Machine, s1, s2 []op) string {
	if reason := m.Controller.ReplayUnsafeReason(); reason != "" {
		return reason
	}
	if !schedulesEqual(s1, s2) {
		return "schedule is not shot-invariant"
	}
	switch m.State.(type) {
	case *qphys.Trajectory, *qphys.Density:
		return ""
	}
	return fmt.Sprintf("no compiled replay executor for state backend %T", m.State)
}

// clearProbes detaches the lanes' recorders.
func clearProbes(lanes []BatchLane) {
	for _, ln := range lanes {
		ln.M.SetProbe(nil)
	}
}
