package main

import (
	"quma/internal/core"
	"quma/internal/expt"
	"quma/internal/service"
)

// The request shapes of the four workloads. They are fixed here, not
// generated from library code, so that a change to the library cannot
// silently change what the benchmark submits.

// probeProgram is the single-qubit measurement program of the serve
// workloads' asm experiments: initialise, X90, measure.
const probeProgram = "mov r15, 40000\nQNopReg r15\nPulse {q0}, X90\nWait 4\nMPG {q0}, 300\nMD {q0}, r7\nhalt\n"

// repCodeBareRound is one distance-5 repetition-code round without
// feedback (expt.RepCodeShotProgram with DataQubits 5, correct=false):
// encode |1>_L, wait 8 us, extract the four parities through CNOTs,
// measure ancillas and data. It never consumes a measurement result, so
// replay takes every shot after the lead shots.
const repCodeBareRound = `mov r15, 40000
QNopReg r15
Pulse {q0}, X180
Wait 4
Apply2 CNOT, q1, q0
Apply2 CNOT, q2, q0
Apply2 CNOT, q3, q0
Apply2 CNOT, q4, q0
Wait 1600
Apply2 CNOT, q5, q0
Apply2 CNOT, q5, q1
Apply2 CNOT, q6, q1
Apply2 CNOT, q6, q2
Apply2 CNOT, q7, q2
Apply2 CNOT, q7, q3
Apply2 CNOT, q8, q3
Apply2 CNOT, q8, q4
Measure q5, r7
Measure q6, r8
Measure q7, r3
Measure q8, r4
Wait 340
Measure q0, r9
Wait 340
Measure q1, r9
Wait 340
Measure q2, r9
Wait 340
Measure q3, r9
Wait 340
Measure q4, r9
Wait 340
halt
`

// activeReset is one cycle of the examples/feedback program: X90,
// measure, and an X180 only when the result was |1>, then a verifying
// measurement. The branch on r7 makes it replay-unsafe, so every shot
// runs the full pipeline; core.shot_us and the exec metrics time it.
const activeReset = `mov r15, 40000
mov r6, 0
QNopReg r15
Pulse {q0}, X90
Wait 4
MPG {q0}, 300
MD {q0}, r7
Wait 340
beq r7, r6, Verify
Pulse {q0}, X180
Wait 4
Verify:
MPG {q0}, 300
MD {q0}, r8
halt
`

const (
	// clients is the number of closed-loop client goroutines of the
	// serve workloads; with 2 server workers and 2 vCPUs this keeps the
	// machine busy without building a queue.
	clients = 2
	// smallShots is serve_small's shots per experiment.
	smallShots = 32
	// catalogueSize is the number of distinct serve_small requests
	// warmed before timing and repeated during it.
	catalogueSize = 256
	// smallBlock is serve_small's schedule block: every block of this
	// many submissions holds exactly one fresh request, so the scheduled
	// cache-hit share is (smallBlock-1)/smallBlock at any block boundary.
	smallBlock = 4
	// replayJobShots is job_replay's shot count, sized so that one job
	// takes under a second on a 2-vCPU host.
	replayJobShots = 16384
	// jobVariants is the number of machine seeds job_replay picks from;
	// the result digest of each is recorded in pins.json.
	jobVariants = 4
	// jobLanes is job_replay's batch lane width (and the width
	// replay.batch_shot_ns is measured at).
	jobLanes = 8
)

// jobSeeds are the machine seeds of job_replay's variants.
var jobSeeds = [jobVariants]int64{7, 11, 13, 17}

// phase separates the seed ranges of the parts of one run, so that no
// two submissions of a run share a canonical form unless the schedule
// says they repeat. Timed window k uses phase phaseWindow+k.
const (
	phaseWarm = iota
	phaseLayers
	phaseCatalogue
	phaseWindow
)

// gen derives a run's requests from its seed.
type gen struct {
	seed int64
	base int64
}

func newGen(seed int64) *gen {
	// Keep the base far below the int64 limit so that offsets never
	// overflow into negative (invalid) machine seeds.
	return &gen{seed: seed, base: expt.DeriveSeed(seed, 0) % (1 << 50)}
}

// machineSeed is a distinct non-negative machine seed for the i-th
// submission of client in phase.
func (g *gen) machineSeed(phase, client, i int) int64 {
	return g.base + (int64(phase*8+client)<<32+int64(i))*2
}

// mixedBatch is serve_mixed's cold batch. The t1 and asm seeds vary per
// job so that every batch misses the result cache; rb keeps a fixed
// machine and sequence seed because its decay fit is only sure to
// converge for sane sequences.
func mixedBatch(seed int64) []service.ExperimentRequest {
	return []service.ExperimentRequest{
		{Type: "t1", Seed: seed, Backend: "density", Rounds: 60},
		{Type: "asm", Seed: seed + 1, Backend: "trajectory", Rounds: 200, Program: probeProgram},
		{Type: "rb", Seed: 2, Backend: "trajectory", SeqSeed: 7, Lengths: []int{1, 4, 8}, Trials: 2, Rounds: 60},
	}
}

// mixedReference is serve_mixed's reference batch, whose fitted T1 and
// RB error are pinned.
func mixedReference() []service.ExperimentRequest { return mixedBatch(5) }

// smallRequest is serve_small's one-experiment job.
func smallRequest(seed int64) []service.ExperimentRequest {
	return []service.ExperimentRequest{{Type: "asm", Seed: seed, Backend: "trajectory", Rounds: smallShots, Program: probeProgram}}
}

// jobRequest is job_replay's single job, for machine-seed variant v: its
// shards spread over two shot workers in groups of jobLanes lockstep
// lanes.
func jobRequest(v int) []service.ExperimentRequest {
	return []service.ExperimentRequest{{
		Type: "asm", Seed: jobSeeds[v], Backend: "trajectory", NumQubits: 9,
		Rounds: replayJobShots, ShotWorkers: 2, BatchLanes: jobLanes, Program: repCodeBareRound,
	}}
}

// variant picks job_replay's machine-seed variant from the run seed.
func variant(seed int64) int {
	v := int(seed % jobVariants)
	if v < 0 {
		v += jobVariants
	}
	return v
}

// reference is a workload's fixed job, independent of the run seed: the
// input of the pinned model statistics.
func reference(workload string) []service.ExperimentRequest {
	switch workload {
	case "serve_mixed":
		return mixedReference()
	case "serve_small":
		return smallRequest(3)
	}
	return jobRequest(0)
}

// asmOf returns the asm experiment of a job (every workload has one).
func asmOf(job []service.ExperimentRequest) service.ExperimentRequest {
	for _, r := range job {
		if r.Type == "asm" {
			return r
		}
	}
	panic("perfbench: job has no asm experiment")
}

// shotsOf is the number of shots a request simulates: rounds per sweep
// point times the points (t1 delays, rb lengths times trials), or the
// shot count of an asm program.
func shotsOf(r service.ExperimentRequest) int {
	switch r.Type {
	case "t1":
		if len(r.DelaysCycles) > 0 {
			return r.Rounds * len(r.DelaysCycles)
		}
		return r.Rounds * len(expt.DefaultSweepParams().DelaysCycles)
	case "rb":
		return r.Rounds * len(r.Lengths) * r.Trials
	}
	return r.Rounds
}

// machineConfig is the machine configuration service.Execute builds for
// a request, for the fields the workloads set.
func machineConfig(r service.ExperimentRequest) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = r.Seed
	cfg.Backend = core.Backend(r.Backend)
	if r.Type == "asm" && r.NumQubits > 0 {
		cfg.NumQubits = r.NumQubits
	}
	return cfg
}
