// Package core assembles the complete QuMA machine: the quantum control
// box of the paper's Section 7 (execution controller, physical microcode
// unit, quantum microinstruction buffer, timing control unit,
// micro-operation units, codeword-triggered pulse generation units,
// measurement discrimination unit, data collection unit) wired to a
// simulated transmon chip in place of the dilution refrigerator.
//
// The machine runs programs written in the combined auxiliary-classical +
// QuMIS instruction set (optionally containing QIS gate instructions,
// which the microcode unit expands), and exposes the observables an
// experimentalist gets from the real box: per-index averaged integration
// results, measurement registers, pulse playback logs, and an event
// timeline.
//
// A machine is split along the paper's own line between configuration
// and execution. Configuration-time state — the control store, the
// micro-operation unit, the CTPG lookup tables, the MDU calibration —
// lives in an immutable Template, "changed without touching programs"
// by deriving a new template (Template.WithPulse). Execution state —
// registers and memory, the QMB and timing queues, the PRNG, the quantum
// register, the logs and counters — lives in each Machine and is all
// that ResetState clears. A template also owns the caches keyed by its
// configuration (pulse rotations, decoherence channels, compiled replay
// schedules); they only grow, so every machine built from one template,
// in any goroutine, resolves the same entries.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"quma/internal/asm"
	"quma/internal/awg"
	"quma/internal/clock"
	"quma/internal/exec"
	"quma/internal/isa"
	"quma/internal/microcode"
	"quma/internal/pulse"
	"quma/internal/qphys"
	"quma/internal/readout"
	"quma/internal/uop"
)

// Backend selects the quantum-state substrate the machine evolves. The
// instruction pipeline is substrate-agnostic: it only touches the state
// through the qphys.State interface.
type Backend string

const (
	// BackendDensity is the exact density-matrix backend: O(4^n) memory,
	// every channel applied as a full Kraus sum, register size 1–8.
	// It is the default (an empty Backend value selects it).
	BackendDensity Backend = "density"
	// BackendTrajectory is the pure-state Monte-Carlo backend: O(2^n)
	// memory, one Kraus operator sampled per channel application from the
	// machine's deterministic PRNG, register size 1–16. Exact in
	// expectation over shots; use it for multi-shot experiments that need
	// more qubits or more speed than the density backend affords.
	BackendTrajectory Backend = "trajectory"
)

// maxQubits returns the backend's register-size ceiling.
func (b Backend) maxQubits() (int, error) {
	switch b {
	case "", BackendDensity:
		return 8, nil
	case BackendTrajectory:
		return isa.MaxQubits, nil
	}
	return 0, fmt.Errorf("core: unknown backend %q (want %q or %q)", b, BackendDensity, BackendTrajectory)
}

// Config describes a QuMA machine instance.
type Config struct {
	// NumQubits is the simulated register size. The density backend
	// allows 1–8 (the control box has 8 digital outputs and three AWG
	// boards in the paper); the trajectory backend extends the simulated
	// chip to 1–16.
	NumQubits int
	// Backend selects the quantum-state substrate (empty = density).
	Backend Backend
	// Qubit holds per-qubit coherence/control parameters; missing entries
	// default to qphys.DefaultQubitParams. NewTemplate copies them into
	// the template, whose decoherence-channel cache captures them: they
	// are fixed for the template's lifetime — build a new template for
	// other qubit parameters.
	Qubit []qphys.QubitParams
	// Readout configures the measurement chain (shared calibration).
	Readout readout.Params
	// AmplitudeError is the fractional pulse-amplitude miscalibration ε
	// applied when uploading the standard library (AllXY error-signature
	// knob).
	AmplitudeError float64
	// SSBHz is the single-sideband modulation frequency.
	SSBHz float64
	// Seed seeds the machine's deterministic PRNG.
	Seed int64
	// CollectK enables the data collection unit with K results per round
	// when positive.
	CollectK int
	// TraceEvents enables the event timeline log (Fig. 3 / Fig. 5
	// reproduction); experiments with millions of shots leave it off.
	TraceEvents bool
}

// DefaultConfig returns a single-qubit machine with the paper's
// parameters.
func DefaultConfig() Config {
	return Config{
		NumQubits: 1,
		Readout:   readout.DefaultParams(),
		SSBHz:     pulse.DefaultSSBHz,
		Seed:      1,
	}
}

// Probe observes the machine's quantum-operation stream in
// deterministic-domain (TD) order: exactly the operations applied to the
// State backend, in the order they consume the machine PRNG. The replay
// engine (internal/replay) installs one to record per-shot schedules. A
// nil probe costs one predictable branch per operation.
type Probe interface {
	// Idle reports an idle-advance channel application on qubit q: rz is
	// the detuning rotation (N == 0 when absent) and kraus the decoherence
	// Kraus set (nil when the channel is exactly the identity). Pure
	// no-op advances are not reported.
	Idle(q int, rz qphys.Matrix, kraus []qphys.Matrix)
	// Pulse1 reports a played drive pulse on qubit q. u.N == 0 means the
	// pulse was timing-only (zero rotation angle): no unitary was applied
	// but the playback still counted toward PulsesPlayed.
	Pulse1(u qphys.Matrix, q int)
	// Gate2 reports a two-qubit flux-pulse unitary applied to (qa, qb).
	Gate2(u qphys.Matrix, qa, qb int)
	// Measured reports one completed per-qubit measurement chain and its
	// binary discrimination result.
	Measured(q, result int)
}

// TraceEntry is one event of the deterministic-domain timeline.
type TraceEntry struct {
	TD   clock.Cycle
	Kind string // "pulse", "mpg", "md"
	Desc string
}

func (e TraceEntry) String() string {
	return fmt.Sprintf("TD=%-8d (%6.2fµs)  %-5s %s", e.TD, float64(e.TD.Nanos())/1e3, e.Kind, e.Desc)
}

// Template is the configuration-time half of a QuMA machine: the
// normalized Config, the Q control store, the micro-operation unit, the
// per-qubit CTPG lookup tables, the MDU calibration and the CZ unitary,
// plus three caches derived from them. Nothing in a template changes
// after NewTemplate (WithPulse derives a new one); its caches only grow,
// one entry per key, built under a lock. Any number of machines, in any
// goroutines, may run on one template.
type Template struct {
	cfg  Config
	root *Template // the NewTemplate this one derives from (itself for a root)
	cs   *microcode.ControlStore
	uop  *uop.Unit
	// ctpg holds the lookup tables; each machine plays them through
	// copies of its own, which keep the playback logs.
	ctpg []*awg.CTPG
	mdu  *readout.MDU
	cz   qphys.Matrix // the flux-pulse path's CZ unitary
	// ssbPeriod is the single-sideband period in samples when it is an
	// integer number of samples (the cacheable case), else 0. rotationOf
	// reads it on every pulse.
	ssbPeriod clock.Sample
	rot       *memo[rotKey, rotVal]
	// deco memoizes the decoherence Kraus set (and detuning rotation) per
	// (qubit, idle duration): advance recomputes identical channels
	// millions of times per experiment, and building one allocates ~10
	// small matrices.
	deco *memo[decoKey, decoVal]
	// compiled is the replay engine's compiled-schedule memo (Compiled).
	compiled *memo[*isa.Program, any]
}

// maxCompiledPrograms bounds a template's compiled-schedule memo.
const maxCompiledPrograms = 256

// memo is an append-only map shared by the machines of a template. A
// key's entry is built once, under the lock (racing machines wait for
// one build), and every later lookup returns it — unless keep rejects
// it, and then it is rebuilt. A positive max bounds the map, which
// starts afresh on overflow. keep and build must not reach the memo.
type memo[K comparable, V any] struct {
	mu  sync.Mutex
	max int
	m   map[K]V
}

func newMemo[K comparable, V any](max int) *memo[K, V] {
	return &memo[K, V]{max: max, m: make(map[K]V)}
}

func (c *memo[K, V]) get(k K, keep func(V) bool, build func() V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.m[k]; ok && (keep == nil || keep(v)) {
		return v
	}
	if c.max > 0 && len(c.m) >= c.max {
		c.m = make(map[K]V)
	}
	v := build()
	c.m[k] = v
	return v
}

// Machine is a fully wired QuMA control box plus simulated chip: the
// execution state of one run on a Template.
type Machine struct {
	Controller *exec.Controller
	QMB        *exec.QMB
	// CTPG is one drive channel per qubit: the machine's playback log
	// over its template's lookup table, which is read-only here.
	CTPG      []*awg.CTPG
	Digital   *awg.DigitalOutputUnit
	Collector *readout.DataCollector
	// State is the quantum register, behind the pluggable backend
	// interface — the concrete type is chosen by Config.Backend.
	State qphys.State

	tmpl     *Template // the template the machine runs on
	root     *Template // the root template ResetState rebinds to
	rng      *rand.Rand
	lastTime []clock.Sample // per-qubit time up to which physics advanced
	trace    []TraceEntry
	// probe, when non-nil, observes the quantum-operation stream.
	probe Probe
	// PulsesPlayed counts codeword-triggered playbacks.
	PulsesPlayed uint64
	// Measurements counts MD events executed.
	Measurements uint64
	runErr       error
}

type rotKey struct {
	q     int
	cw    awg.Codeword
	phase clock.Sample // playback start modulo the SSB period
}

type rotVal struct {
	phi, theta float64
	mat        qphys.Matrix // REquator(phi, theta), built once per entry
}

type decoKey struct {
	q     int
	delta clock.Sample // idle duration in samples
}

type decoVal struct {
	rz    qphys.Matrix   // detuning rotation; N == 0 when no detuning
	ops   []qphys.Matrix // decoherence Kraus operators
	ident bool           // channel is exactly the identity: skip it
}

// NewTemplate validates and normalizes cfg and builds its template:
// uploads the Table 1 pulse library to every CTPG lookup table, fills
// the micro-operation unit with pass-through entries, calibrates the
// MDU, and loads the standard Q control store. cfg.Seed is dropped —
// each machine takes its own.
func NewTemplate(cfg Config) (*Template, error) {
	maxQ, err := cfg.Backend.maxQubits()
	if err != nil {
		return nil, err
	}
	if cfg.NumQubits < 1 || cfg.NumQubits > maxQ {
		return nil, fmt.Errorf("core: NumQubits %d out of range 1..%d for backend %q", cfg.NumQubits, maxQ, cfg.Backend)
	}
	if cfg.SSBHz == 0 {
		cfg.SSBHz = pulse.DefaultSSBHz
	}
	if cfg.Readout.IntegrationSamples == 0 {
		cfg.Readout = readout.DefaultParams()
	}
	cfg.Seed = 0
	cfg.Qubit = slices.Clone(cfg.Qubit)
	for len(cfg.Qubit) < cfg.NumQubits {
		cfg.Qubit = append(cfg.Qubit, qphys.DefaultQubitParams())
	}

	t := &Template{
		cfg:      cfg,
		cs:       microcode.StandardControlStore(),
		uop:      uop.NewUnit(),
		mdu:      readout.Calibrate(cfg.Readout),
		cz:       qphys.CZ(),
		rot:      newMemo[rotKey, rotVal](0),
		deco:     newMemo[decoKey, decoVal](0),
		compiled: newMemo[*isa.Program, any](maxCompiledPrograms),
	}
	t.root = t
	// cfg.SSBHz was defaulted above, so only a non-integral period (in
	// samples) leaves ssbPeriod at 0 — the uncacheable demodulation case.
	if p := math.Abs(1e9 / cfg.SSBHz); p == math.Trunc(p) {
		t.ssbPeriod = clock.Sample(p)
	}
	for q := 0; q < cfg.NumQubits; q++ {
		c := awg.NewCTPG()
		c.SSBHz = cfg.SSBHz
		if err := c.UploadStandardLibrary(cfg.AmplitudeError); err != nil {
			return nil, fmt.Errorf("core: calibrating qubit %d: %w", q, err)
		}
		t.ctpg = append(t.ctpg, c)
	}
	t.uop.DefineStandardLibrary()
	return t, nil
}

// Config returns the template's normalized configuration (Seed zero).
// Its Qubit slice is the template's own and must not be modified.
func (t *Template) Config() Config { return t.cfg }

// WithPulse derives a template that plays waveform w under codeword cw
// on qubit q's drive channel, with µop name forwarding to it: the
// recalibration path, leaving t untouched. The derived template copies
// qubit q's lookup table and the µop unit, shares t's decoherence cache,
// and starts empty rotation and compiled-schedule caches, so nothing
// built from t's waveform can be applied to w.
func (t *Template) WithPulse(q int, cw awg.Codeword, name string, w pulse.Waveform) (*Template, error) {
	if q < 0 || q >= len(t.ctpg) {
		return nil, fmt.Errorf("core: no drive channel for qubit %d", q)
	}
	d := *t
	d.ctpg = slices.Clone(t.ctpg)
	d.ctpg[q] = t.ctpg[q].Clone()
	if err := d.ctpg[q].Upload(cw, name, w); err != nil {
		return nil, err
	}
	d.uop = t.uop.Clone()
	d.uop.DefinePrimitive(name, cw)
	d.rot, d.compiled = newMemo[rotKey, rotVal](0), newMemo[*isa.Program, any](maxCompiledPrograms)
	return &d, nil
}

// Compiled resolves the replay engine's compiled form of program p on
// this template: the stored entry when keep accepts it, else build's,
// which replaces it. Calls are serialized per template, keep and build
// included (they must not call Compiled), so machines running p
// concurrently build it once and share it. At most maxCompiledPrograms
// programs are held; an overflow starts afresh.
func (t *Template) Compiled(p *isa.Program, keep func(any) bool, build func() any) any {
	return t.compiled.get(p, keep, build)
}

// NewMachine builds a machine on t in the ResetState(seed) condition.
func (t *Template) NewMachine(seed int64) *Machine {
	m := &Machine{root: t.root, rng: rand.New(rand.NewSource(seed)), lastTime: make([]clock.Sample, t.cfg.NumQubits)}
	// The trajectory backend samples Kraus operators from the machine's
	// own PRNG — the same stream measurement draws from — so a fixed
	// seed fixes the whole trajectory.
	if t.cfg.Backend == BackendTrajectory {
		m.State = qphys.NewTrajectory(t.cfg.NumQubits, m.rng)
	} else {
		m.State = qphys.NewDensity(t.cfg.NumQubits)
	}
	if t.cfg.CollectK > 0 {
		m.Collector = readout.NewDataCollector(t.cfg.CollectK)
	}
	m.ResetOn(t, seed)
	return m
}

// New builds a template for cfg and one machine on it seeded cfg.Seed.
func New(cfg Config) (*Machine, error) {
	t, err := NewTemplate(cfg)
	if err != nil {
		return nil, err
	}
	return t.NewMachine(cfg.Seed), nil
}

// Template returns the template the machine runs on.
func (m *Machine) Template() *Template { return m.tmpl }

// ResetState returns the machine to its just-built condition under a new
// PRNG seed, on the root template it was built from: ResetOn(root, seed).
// A reset machine behaves bit-identically to a fresh NewMachine(seed) —
// which is what lets the sweep engine pool machines across points.
func (m *Machine) ResetState(seed int64) { m.ResetOn(m.root, seed) }

// ResetOn rebinds the machine to template t — its root or a template
// derived from it — and clears every piece of execution state: the
// quantum register, per-qubit clocks, deterministic-domain queues,
// controller registers and memory, collector, playback and digital
// logs, trace, and event counters. Construction's work lives in the
// template and is never redone.
func (m *Machine) ResetOn(t *Template, seed int64) {
	if t.root != m.root {
		panic("core: ResetOn with a template of another configuration")
	}
	if t != m.tmpl {
		m.tmpl, m.CTPG = t, m.CTPG[:0]
		for _, c := range t.ctpg {
			ch := *c // shares the lookup table; the template's log stays empty
			m.CTPG = append(m.CTPG, &ch)
		}
	}
	m.rng.Seed(seed)
	// The State keeps its backend binding (the trajectory backend samples
	// from m.rng, which stays the same object).
	m.State.Reset()
	clear(m.lastTime)
	m.trace = nil
	m.PulsesPlayed = 0
	m.Measurements = 0
	m.runErr = nil
	m.probe = nil
	for _, c := range m.CTPG {
		c.ResetPlaybacks()
	}
	m.Digital = awg.NewDigitalOutputUnit()
	if m.Collector != nil {
		m.Collector.Reset()
	}
	m.QMB = exec.NewQMB(m.onPulse, m.onMPG, nil)
	m.Controller = exec.NewController(t.cs, m.QMB)
	m.QMB.MDQ.OnFire = m.onMD
}

// SetProbe installs (or removes, with nil) the quantum-operation stream
// observer.
func (m *Machine) SetProbe(p Probe) { m.probe = p }

// RunAssembly assembles and runs a program, returning the first error
// from either domain.
func (m *Machine) RunAssembly(src string) error {
	p, err := asm.Assemble(src)
	if err != nil {
		return err
	}
	return m.RunProgram(p)
}

// RunProgram executes a program to completion (halt) with the default
// step bound.
func (m *Machine) RunProgram(p *isa.Program) error {
	if err := m.Controller.Load(p); err != nil {
		return err
	}
	m.runErr = nil
	if err := m.Controller.Run(0); err != nil {
		return err
	}
	return m.runErr
}

// Trace returns the deterministic-domain event timeline (empty unless
// Config.TraceEvents).
func (m *Machine) Trace() []TraceEntry { return m.trace }

// ResetTrace clears the timeline.
func (m *Machine) ResetTrace() { m.trace = nil }

// MemoryFootprintBytes returns the total CTPG lookup-table memory at the
// paper's 12-bit accounting.
func (m *Machine) MemoryFootprintBytes() int {
	total := 0
	for _, c := range m.CTPG {
		total += c.MemoryBytes(12)
	}
	return total
}

// fail records the first deterministic-domain error; the paper's hardware
// would raise it as a fault flag.
func (m *Machine) fail(err error) {
	if m.runErr == nil && err != nil {
		m.runErr = err
	}
}

// advance applies decoherence to qubit q from its last-advanced time to
// the target sample time. The (detuning rotation, Kraus set) pair for a
// given idle duration is cached on the template: experiment programs
// idle each qubit by a handful of distinct durations, millions of times.
func (m *Machine) advance(q int, to clock.Sample) {
	if to <= m.lastTime[q] {
		return
	}
	delta := to - m.lastTime[q]
	m.lastTime[q] = to
	v := m.tmpl.deco.get(decoKey{q: q, delta: delta}, nil, func() (v decoVal) {
		dt := float64(delta) * 1e-9
		p := m.tmpl.cfg.Qubit[q]
		if p.FreqDetuningHz != 0 {
			v.rz = qphys.RZ(2 * math.Pi * p.FreqDetuningHz * dt)
		}
		v.ops = qphys.DecoherenceChannel(dt, p)
		// DecoherenceChannel returns {I} exactly when both coherence
		// times are disabled; applying it would be an exact no-op.
		v.ident = p.T1 <= 0 && p.T2 <= 0
		return v
	})
	if v.rz.N != 0 {
		m.State.Apply1(v.rz, q)
	}
	if !v.ident {
		m.State.ApplyKraus1(v.ops, q)
	}
	if m.probe != nil && (v.rz.N != 0 || !v.ident) {
		ops := v.ops
		if v.ident {
			ops = nil
		}
		m.probe.Idle(q, v.rz, ops)
	}
}

// onPulse handles a fired pulse micro-operation: expand through the
// micro-operation unit, trigger the CTPG(s), and apply the resulting
// physics to the chip.
func (m *Machine) onPulse(e exec.PulseEvent, td clock.Cycle) {
	qs := e.Qubits.Qubits()
	if e.UOp == "CZ" {
		if len(qs) != 2 {
			m.fail(fmt.Errorf("core: CZ requires exactly 2 qubits, got %s", e.Qubits))
			return
		}
		// The CZ flux pulse goes out on a dedicated flux line with the
		// same fixed latency as drive pulses.
		at := (td + awg.FixedDelayCycles).Samples()
		m.advance(qs[0], at)
		m.advance(qs[1], at)
		m.State.Apply2(m.tmpl.cz, qs[0], qs[1])
		if m.probe != nil {
			m.probe.Gate2(m.tmpl.cz, qs[0], qs[1])
		}
		m.tracef(td, "pulse", "CZ %s", e.Qubits)
		m.PulsesPlayed++
		return
	}
	for _, q := range qs {
		if q >= len(m.CTPG) {
			m.fail(fmt.Errorf("core: qubit %d has no drive channel", q))
			return
		}
		triggers, err := m.tmpl.uop.Expand(e.UOp, td)
		if err != nil {
			m.fail(err)
			return
		}
		for _, tr := range triggers {
			pb, err := m.CTPG[q].Trigger(tr.CW, tr.At)
			if err != nil {
				m.fail(err)
				return
			}
			m.applyPlayback(q, pb)
		}
	}
	m.tracef(td, "pulse", "%s %s", e.UOp, e.Qubits)
}

// applyPlayback converts a CTPG playback into a rotation on qubit q.
func (m *Machine) applyPlayback(q int, pb awg.Playback) {
	m.advance(q, pb.Start)
	v := m.rotationOf(q, pb)
	if v.theta != 0 {
		m.State.Apply1(v.mat, q)
	}
	if m.probe != nil {
		u := v.mat
		if v.theta == 0 {
			u = qphys.Matrix{}
		}
		m.probe.Pulse1(u, q)
	}
	m.PulsesPlayed++
}

// rotationOf demodulates the played waveform at its absolute start time.
// Since the waveform content is fixed per codeword, the result depends
// only on the start time modulo the SSB period (hoisted into ssbPeriod
// by NewTemplate), which makes it cacheable on the template — including
// the rotation matrix itself, so the steady-state pulse path performs no
// demodulation and no allocation.
func (m *Machine) rotationOf(q int, pb awg.Playback) rotVal {
	demod := func() rotVal {
		phi, theta := pulse.Rotation(pb.Wave, m.tmpl.cfg.SSBHz, pb.Start)
		return rotVal{phi: phi, theta: theta, mat: qphys.REquator(phi, theta)}
	}
	period := m.tmpl.ssbPeriod
	if period == 0 {
		return demod()
	}
	return m.tmpl.rot.get(rotKey{q: q, cw: pb.Codeword, phase: pb.Start % period}, nil, demod)
}

// onMPG handles measurement-pulse generation: the digital output unit
// raises the outputs selected by QAddr for the pulse duration, gating
// the external measurement-carrier source (paper §7.1). The pulse only
// interrogates the resonator; its effect on the qubit (projection) is
// accounted for in onMD, which fires at the same time point in the
// paper's programs.
func (m *Machine) onMPG(e exec.MPGEvent, td clock.Cycle) {
	if err := m.Digital.Trigger(uint16(e.Qubits), e.Duration, td); err != nil {
		m.fail(err)
		return
	}
	m.tracef(td, "mpg", "%s for %d cycles", e.Qubits, e.Duration)
}

// onMD runs the measurement chain for each addressed qubit: advance
// physics to TD, project the state, synthesize the transmitted trace,
// integrate and discriminate in the MDU, record the integration result,
// and write the packed binary results to the destination register.
func (m *Machine) onMD(e exec.MDEvent, td clock.Cycle) {
	var packed int64
	for _, q := range e.Qubits.Qubits() {
		if q >= m.tmpl.cfg.NumQubits {
			m.fail(fmt.Errorf("core: MD on absent qubit %d", q))
			return
		}
		m.advance(q, td.Samples())
		result := m.MeasureQubit(q)
		if m.probe != nil {
			m.probe.Measured(q, result)
		}
		if result == 1 {
			packed |= 1 << q
		}
		// The discrimination result is available Latency cycles after
		// integration; physics time advances accordingly.
		m.advance(q, (td + m.tmpl.mdu.TotalLatency()).Samples())
	}
	// Single-qubit MD writes 0/1; multi-qubit MD packs bit q of the
	// result word, mirroring the combined-readout extension of §5.1.2.
	if len(e.Qubits.Qubits()) == 1 && packed != 0 {
		packed = 1
	}
	m.Controller.WriteReg(e.Rd, packed)
	m.tracef(td, "md", "%s -> %s", e.Qubits, e.Rd)
}

// MeasureQubit runs the per-qubit measurement chain at the current state:
// project the register, sample the matched-filter integration result from
// its exact distribution (readout.MDU.SampleMeasure), record it in the
// data collection unit, and return the binary discrimination result. It
// consumes exactly two PRNG variates (projection + integration noise) —
// the contract the replay engine relies on to keep replayed shots
// bit-identical to full simulation. Shared by onMD and replay.
func (m *Machine) MeasureQubit(q int) int {
	return m.FinishMeasure(m.State.Measure(q, m.rng))
}

// FinishMeasure completes the measurement chain for an already-projected
// outcome: sample the matched-filter integration result from its exact
// distribution, record it in the data collection unit, and return the
// binary discrimination result. Compiled replay schedules project inside
// qphys.RunSchedule (consuming the projection variate from the machine
// PRNG the trajectory backend is bound to) and call back here, so the
// chain consumes the same two variates in the same order as
// MeasureQubit.
func (m *Machine) FinishMeasure(outcome int) int {
	result, s := m.tmpl.mdu.SampleMeasure(outcome, m.rng)
	if m.Collector != nil {
		m.Collector.Record(s)
	}
	m.Measurements++
	return result
}

func (m *Machine) tracef(td clock.Cycle, kind, format string, args ...any) {
	if !m.tmpl.cfg.TraceEvents {
		return
	}
	m.trace = append(m.trace, TraceEntry{TD: td, Kind: kind, Desc: fmt.Sprintf(format, args...)})
}
