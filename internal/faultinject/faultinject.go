// Package faultinject builds deterministic fault plans for the
// quma-serve hardening suite. A Plan names, by global ordinal, the
// machine-pool acquisition that should fail, the engine shot that
// should panic, or the shot from which every shot turns slow — and
// compiles into the expt.FaultHooks hook points of the sweep engine.
// Disk fault plans (FailJournalAppend, TornWrite, SlowFsync) compile
// the same way into the journal's hook points (journal.Faults) and
// drive the kill-based crash-recovery harness in internal/service.
// Determinism is the point: a chaos test that fails replays exactly by
// rerunning with the same plan, because the injection sites are counted
// with atomic ordinals, not sampled per call.
//
// The package deliberately knows nothing about HTTP or the service
// layer. It only produces hooks; internal/service carries them to the
// Env (service.Config.Faults), and the chaos suite in this package's
// tests drives a real server through each fault and asserts the three
// hardening invariants: the server stays available, every failure maps
// to a stable taxonomy code, and a fault-free rerun of the same
// requests is byte-identical to a run on an unfaulted server.
package faultinject

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"quma/internal/expt"
	"quma/internal/journal"
)

// ErrInjected marks an injected pool-acquisition failure, so tests can
// errors.Is their way past the service's message formatting.
var ErrInjected = errors.New("faultinject: injected pool-get failure")

// ErrInjectedAppend marks an injected journal append failure.
var ErrInjectedAppend = errors.New("faultinject: injected journal append failure")

// Plan is one deterministic fault schedule. Ordinals are 1-based and
// counted across the whole Env the hooks are installed on (all sweep
// points, all requests); zero disables that fault. The zero Plan
// injects nothing and compiles to nil hooks.
type Plan struct {
	// FailPoolGet fails the Nth machine-pool acquisition with an error
	// wrapping ErrInjected — the construction-error path between the
	// pool and the sweep runner.
	FailPoolGet int
	// PanicShot panics on the Nth engine shot, exercising worker panic
	// isolation: the job must fail `internal` with a captured stack, the
	// machine must be discarded, and the server must keep serving.
	PanicShot int
	// SlowShot makes every engine shot from the Nth onward sleep SlowFor,
	// forcing a job deadline to expire mid-sweep (the bounded-staleness
	// preemption path). SlowFor defaults to 1ms when SlowShot is set.
	SlowShot int
	SlowFor  time.Duration

	// Disk fault plan — compiled by JournalFaults into the journal's
	// hook points (same nil-check-only pattern), for the kill-based
	// crash harness in internal/service.
	//
	// FailJournalAppend fails the Nth journal append with an error
	// wrapping ErrInjectedAppend: at the accepted record this rejects
	// the submission (500 journal_append_failed); at any later record it
	// is absorbed (best-effort transitions re-execute after a crash).
	FailJournalAppend int
	// TornWrite tears the Nth journal append: only a prefix of the
	// framed record reaches disk and the journal wedges, reproducing
	// exactly the tail a crash mid-write leaves. Recovery must truncate
	// it, never fail startup.
	TornWrite int
	// SlowFsync makes every journal fsync from the Nth onward sleep
	// SlowFsyncFor (default 1ms): durability latency without failure.
	SlowFsync    int
	SlowFsyncFor time.Duration
}

// NewPlan derives a single-fault plan from a seed: the fault kind and
// its (small) ordinal are both functions of the seed alone, so a seed
// is a complete, replayable description of the injection. Used by the
// chaos suite to sweep many distinct injection sites without
// hand-picking them.
func NewPlan(seed int64) Plan {
	kind := expt.DeriveSeed(seed, 0) % 3
	ord := int(expt.DeriveSeed(seed, 1)%64) + 1
	switch kind {
	case 0:
		return Plan{FailPoolGet: ord}
	case 1:
		return Plan{PanicShot: ord}
	default:
		return Plan{SlowShot: ord, SlowFor: time.Millisecond}
	}
}

// Hooks compiles the plan into sweep-engine hooks. The returned hooks
// carry their own atomic ordinal counters, so each Hooks() call is an
// independent injection run; nil is returned for the empty plan (and a
// nil hook set is free — see expt.FaultHooks).
func (p Plan) Hooks() *expt.FaultHooks {
	if p.FailPoolGet <= 0 && p.PanicShot <= 0 && p.SlowShot <= 0 {
		return nil
	}
	slowFor := p.SlowFor
	if slowFor <= 0 {
		slowFor = time.Millisecond
	}
	var gets, shots atomic.Int64
	h := &expt.FaultHooks{}
	if p.FailPoolGet > 0 {
		h.PoolGet = func() error {
			if gets.Add(1) == int64(p.FailPoolGet) {
				return fmt.Errorf("%w (acquisition %d)", ErrInjected, p.FailPoolGet)
			}
			return nil
		}
	}
	if p.PanicShot > 0 || p.SlowShot > 0 {
		h.Shot = func(int) {
			n := shots.Add(1)
			if p.PanicShot > 0 && n == int64(p.PanicShot) {
				panic(fmt.Sprintf("faultinject: injected panic at engine shot %d", n))
			}
			if p.SlowShot > 0 && n >= int64(p.SlowShot) {
				time.Sleep(slowFor)
			}
		}
	}
	return h
}

// NewDiskPlan derives a single disk-fault plan from a seed, the same
// way NewPlan derives sweep-engine faults (NewPlan's seed→fault mapping
// is part of replayability and must not change, so disk faults get
// their own derivation). The ordinal stays small so the fault lands
// within the first few appends of a test workload.
func NewDiskPlan(seed int64) Plan {
	kind := expt.DeriveSeed(seed, 2) % 3
	ord := int(expt.DeriveSeed(seed, 3)%8) + 1
	switch kind {
	case 0:
		return Plan{FailJournalAppend: ord}
	case 1:
		return Plan{TornWrite: ord}
	default:
		return Plan{SlowFsync: ord, SlowFsyncFor: time.Millisecond}
	}
}

// JournalFaults compiles the plan's disk faults into journal hook
// points. Like Hooks, each call carries independent atomic ordinal
// counters; nil is returned when the plan injects no disk fault.
func (p Plan) JournalFaults() *journal.Faults {
	if p.FailJournalAppend <= 0 && p.TornWrite <= 0 && p.SlowFsync <= 0 {
		return nil
	}
	slowFor := p.SlowFsyncFor
	if slowFor <= 0 {
		slowFor = time.Millisecond
	}
	var appends, syncs atomic.Int64
	f := &journal.Faults{}
	if p.FailJournalAppend > 0 || p.TornWrite > 0 {
		// One counter covers both append-shaped faults so their ordinals
		// share a timeline, like PanicShot/SlowShot do.
		f.Append = func() error {
			if appends.Add(1) == int64(p.FailJournalAppend) {
				return fmt.Errorf("%w (append %d)", ErrInjectedAppend, p.FailJournalAppend)
			}
			return nil
		}
		if p.TornWrite > 0 {
			f.Torn = func(frame []byte) []byte {
				if appends.Load() == int64(p.TornWrite) {
					return frame[:len(frame)/2]
				}
				return nil
			}
		}
	}
	if p.SlowFsync > 0 {
		f.Fsync = func() error {
			if syncs.Add(1) >= int64(p.SlowFsync) {
				time.Sleep(slowFor)
			}
			return nil
		}
	}
	return f
}
