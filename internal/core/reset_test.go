package core

import (
	"reflect"
	"sync"
	"testing"

	"quma/internal/isa"
	"quma/internal/qphys"
)

// resetProbeSrc exercises pulses, decoherence, measurement, and the data
// collector in a short multi-round loop, then writes the result to data
// and host memory.
const resetProbeSrc = `
mov r15, 4000
mov r1, 0
mov r2, 20
mov r9, 0
Loop:
QNopReg r15
Pulse {q0}, X90
Wait 4
MPG {q0}, 300
MD {q0}, r7
add r9, r9, r7
addi r1, r1, 1
bne r1, r2, Loop
store r9, r0[4]
hst r9, 2
halt
`

// resetDirtySrc leaves registers, data memory and host memory that
// resetProbeSrc never writes, on a different qubit pulse, so a reset that
// kept any of it shows in TestResetStateMatchesFreshMachine.
const resetDirtySrc = `
mov r3, 77
mov r4, 5
store r3, r4[2]
hst r3, 9
Pulse {q0}, Y90
Wait 4
MPG {q0}, 300
MD {q0}, r6
halt
`

// TestResetStateMatchesFreshMachine is the Machine.ResetState contract: a
// reset machine behaves bit-identically to a freshly constructed one with
// the same config and seed, on both backends, even after the machine has
// run an unrelated program under a different seed — registers, data and
// host memory, trace, digital-output log and playback logs included.
func TestResetStateMatchesFreshMachine(t *testing.T) {
	for _, backend := range []Backend{BackendDensity, BackendTrajectory} {
		t.Run(string(backend), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Backend = backend
			cfg.CollectK = 1
			cfg.Seed = 42
			cfg.TraceEvents = true

			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.RunAssembly(resetProbeSrc); err != nil {
				t.Fatal(err)
			}

			dirty := cfg
			dirty.Seed = 99
			reused, err := New(dirty)
			if err != nil {
				t.Fatal(err)
			}
			if err := reused.RunAssembly(resetDirtySrc); err != nil {
				t.Fatal(err)
			}
			reused.ResetState(42)
			if err := reused.RunAssembly(resetProbeSrc); err != nil {
				t.Fatal(err)
			}

			if fresh.Controller.Regs[9] == 0 {
				t.Fatal("probe program measured no |1>: the memory checks below would be vacuous")
			}
			for _, f := range []struct {
				name         string
				fresh, reuse any
			}{
				{"registers", fresh.Controller.Regs, reused.Controller.Regs},
				{"data memory", fresh.Controller.Mem, reused.Controller.Mem},
				{"host memory", fresh.Controller.HostMem, reused.Controller.HostMem},
				{"trace", fresh.Trace(), reused.Trace()},
				{"digital outputs", fresh.Digital, reused.Digital},
				{"playbacks", fresh.CTPG[0].Playbacks(), reused.CTPG[0].Playbacks()},
			} {
				if !reflect.DeepEqual(f.fresh, f.reuse) {
					t.Errorf("%s differ: fresh=%v reused=%v", f.name, f.fresh, f.reuse)
				}
			}
			fa, ra := fresh.Collector.Averages(), reused.Collector.Averages()
			if fa[0] != ra[0] {
				t.Errorf("collector average: fresh=%v reused=%v", fa[0], ra[0])
			}
			if fresh.PulsesPlayed != reused.PulsesPlayed || fresh.Measurements != reused.Measurements {
				t.Errorf("counters: fresh=(%d,%d) reused=(%d,%d)",
					fresh.PulsesPlayed, fresh.Measurements, reused.PulsesPlayed, reused.Measurements)
			}
			if p, q := fresh.State.ProbExcited(0), reused.State.ProbExcited(0); p != q {
				t.Errorf("final state: fresh=%v reused=%v", p, q)
			}
		})
	}
}

// TestResetStateKeepsCalibration: LUT content and qubit-parameter caches
// survive a reset (that is the point of reusing the machine), while the
// playback log and trace are cleared.
func TestResetStateKeepsCalibration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TraceEvents = true
	cfg.Qubit = []qphys.QubitParams{qphys.DefaultQubitParams()}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunAssembly("Wait 8\nPulse {q0}, X180\nWait 4\nhalt"); err != nil {
		t.Fatal(err)
	}
	if len(m.CTPG[0].Playbacks()) == 0 || len(m.Trace()) == 0 {
		t.Fatal("probe program left no playbacks/trace")
	}
	before := m.MemoryFootprintBytes()
	m.ResetState(7)
	if len(m.CTPG[0].Playbacks()) != 0 {
		t.Error("playback log not cleared")
	}
	if len(m.Trace()) != 0 {
		t.Error("trace not cleared")
	}
	if got := m.MemoryFootprintBytes(); got != before {
		t.Errorf("LUT footprint changed across reset: %d -> %d", before, got)
	}
	if p := m.State.ProbExcited(0); p != 0 {
		t.Errorf("state not reset: P(|1>) = %v", p)
	}
}

// TestWithPulseLeavesParentUntouched: deriving a template copies and
// never mutates — the parent's LUT, µop names and compiled-schedule memo
// are unchanged, and a derived template's rotations never leak back. A
// machine reset after running on a derived template plays the library
// waveform again.
func TestWithPulseLeavesParentUntouched(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Qubit = []qphys.QubitParams{{}} // noiseless: P(|1>) is the rotation
	base, err := NewTemplate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := &isa.Program{}
	entry := base.Compiled(prog, nil, func() any { return "parent entry" })
	names := base.uop.Names()
	x180, _, _ := base.ctpg[0].Lookup(1)
	m := base.NewMachine(1)
	const piPulse = "Wait 8\nPulse {q0}, X180\nWait 4\nhalt"
	if err := m.RunAssembly(piPulse); err != nil {
		t.Fatal(err)
	}
	libraryBytes := m.MemoryFootprintBytes()

	// A new codeword and µop, as Rabi derives per point.
	custom, err := base.WithPulse(0, 8, "CUSTOM", x180)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := base.ctpg[0].Lookup(8); ok {
		t.Error("WithPulse wrote the parent's lookup table")
	}
	if got := base.uop.Names(); !reflect.DeepEqual(got, names) {
		t.Errorf("parent µop names %v, want %v", got, names)
	}
	if got := base.Compiled(prog, func(any) bool { return true }, func() any { return "rebuilt" }); got != entry {
		t.Errorf("parent memo entry = %v, want %v", got, entry)
	}
	if got := custom.Compiled(prog, nil, func() any { return "derived entry" }); got != "derived entry" {
		t.Errorf("derived memo resolved %v, want a fresh entry", got)
	}
	m.ResetOn(custom, 1)
	if err := m.RunAssembly("Wait 8\nPulse {q0}, CUSTOM\nWait 4\nhalt"); err != nil {
		t.Fatal(err)
	}
	if m.MemoryFootprintBytes() == libraryBytes {
		t.Error("derived template's LUT footprint equals the library's")
	}

	// The X180 codeword re-uploaded as the zero-amplitude identity: the
	// derived template must not reuse the parent's cached π rotation.
	ident, _, _ := base.ctpg[0].Lookup(0)
	silent, err := base.WithPulse(0, 1, "X180", ident)
	if err != nil {
		t.Fatal(err)
	}
	m.ResetOn(silent, 1)
	if err := m.RunAssembly(piPulse); err != nil {
		t.Fatal(err)
	}
	if p := m.State.ProbExcited(0); p != 0 {
		t.Errorf("derived X180 (identity waveform) left P(|1>) = %v, want 0", p)
	}

	m.ResetState(1)
	if m.Template() != base {
		t.Fatal("ResetState did not rebind to the root template")
	}
	if err := m.RunAssembly(piPulse); err != nil {
		t.Fatal(err)
	}
	if p := m.State.ProbExcited(0); p < 0.999 {
		t.Errorf("library X180 after reset left P(|1>) = %v, want 1", p)
	}
	if pb := m.CTPG[0].Playbacks(); len(pb) != 1 || !reflect.DeepEqual(pb[0].Wave, x180) {
		t.Errorf("after reset X180 played %v, want the library waveform", pb)
	}
	if got := m.MemoryFootprintBytes(); got != libraryBytes {
		t.Errorf("LUT footprint after reset = %d, want the library's %d", got, libraryBytes)
	}
	if err := m.RunAssembly("Pulse {q0}, CUSTOM\nhalt"); err == nil {
		t.Error("the derived µop survived ResetState")
	}
}

// TestTemplateCachesSharedAcrossMachines runs machines of one template
// concurrently (run it under -race): every key of the template's caches
// is built once, all machines resolve the same entries, and each machine
// still matches a fresh one on a template of its own.
func TestTemplateCachesSharedAcrossMachines(t *testing.T) {
	for _, backend := range []Backend{BackendDensity, BackendTrajectory} {
		t.Run(string(backend), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Backend = backend
			cfg.CollectK = 1
			tmpl, err := NewTemplate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			prog := &isa.Program{}
			var builds sync.Map
			const n = 4
			machines := make([]*Machine, n)
			resolved := make([]any, n)
			var wg sync.WaitGroup
			for i := range machines {
				machines[i] = tmpl.NewMachine(int64(i))
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if err := machines[i].RunAssembly(resetProbeSrc); err != nil {
						t.Error(err)
					}
					resolved[i] = tmpl.Compiled(prog, nil, func() any {
						v := new(int)
						builds.Store(v, i)
						return v
					})
				}(i)
			}
			wg.Wait()
			nbuilds := 0
			builds.Range(func(any, any) bool { nbuilds++; return true })
			if nbuilds != 1 {
				t.Errorf("%d builds of one (template, program) entry, want 1", nbuilds)
			}
			for i, m := range machines {
				if resolved[i] != resolved[0] {
					t.Errorf("machine %d resolved another compiled entry", i)
				}
				c := cfg
				c.Seed = int64(i)
				ref, err := New(c)
				if err != nil {
					t.Fatal(err)
				}
				if err := ref.RunAssembly(resetProbeSrc); err != nil {
					t.Fatal(err)
				}
				if ref.Controller.Regs != m.Controller.Regs || ref.Collector.Averages()[0] != m.Collector.Averages()[0] {
					t.Errorf("machine %d on the shared template differs from a fresh machine", i)
				}
			}
			// One rotation entry per (qubit, codeword, SSB phase) played.
			if got := len(tmpl.rot.m); got != 1 {
				t.Errorf("rotation cache holds %d entries after one pulse kind, want 1", got)
			}
		})
	}
}
