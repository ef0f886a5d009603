package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"quma/internal/asm"
	"quma/internal/core"
	"quma/internal/expt"
	"quma/internal/journal"
	"quma/internal/replay"
	"quma/internal/service"
)

const (
	// layerJobs is how many of a serve workload's fresh jobs the layer
	// replay pushes through service.Execute and the journal.
	layerJobs = 16
	// layerSeed seeds the machines of the pinned layer measurements.
	layerSeed = 1
	// layerReps repeats the costly single calls (core.New, first runs).
	layerReps = 5
	// resetReps and assembleReps repeat the cheap calls.
	resetReps    = 200
	assembleReps = 200
	// fullShots is the number of full-pipeline shots core.shot times.
	fullShots = 256
	// compileShots is the shot count of the first-run/warm-run pair
	// whose difference is the replay compile cost.
	compileShots = 64
	// replayShots is the shot count of the timed replay.Run and
	// replay.RunBatch calls.
	replayShots = 2048
	// overBoundBytes is the live state a journal is filled with to time
	// appends past the journal's default 4 MiB segment bound.
	overBoundBytes = 5 << 20
	// overBoundJobs is how many jobs' records are appended to it.
	overBoundJobs = 2
)

// layerRun replays a workload's traffic through the public functions of
// each layer, one call per span, and reports the per-layer metrics.
// traffic holds jobs the workload sends to execution; the pinned model
// statistics come from the workload's seed-independent reference job.
func layerRun(workload string, traffic [][]service.ExperimentRequest, tr *tracer, out *outcome) error {
	results, err := layerExpt(traffic, tr, out)
	if err != nil {
		return err
	}
	if err := layerJournal(workload, traffic, results, tr, out); err != nil {
		return err
	}
	if err := layerCore(traffic[0], tr, out); err != nil {
		return err
	}
	ref := asmOf(reference(workload))
	if err := layerAssemble(traffic, ref, tr, out); err != nil {
		return err
	}
	if err := layerShot(tr, out); err != nil {
		return err
	}
	if err := layerReplay(ref, tr, out); err != nil {
		return err
	}
	return layerModel(out)
}

// executedTypes are the experiment types of serve_mixed's batch;
// expt.execute_ms is reported for each.
var executedTypes = []string{"t1", "rb", "asm"}

// layerExpt times service.Execute per experiment of the traffic on a
// warmed Env. A type the workload never sends is timed on serve_mixed's
// reference request of that type. It returns each job's results.
func layerExpt(traffic [][]service.ExperimentRequest, tr *tracer, out *outcome) ([][]json.RawMessage, error) {
	ctx := context.Background()
	env := expt.NewEnv()
	for _, r := range traffic[0] {
		if _, err := service.Execute(ctx, env, r); err != nil {
			return nil, fmt.Errorf("layer warm-up: %w", err)
		}
	}
	results := make([][]json.RawMessage, len(traffic))
	for j, job := range traffic {
		id := fmt.Sprintf("layer-job-%d", j)
		for _, r := range job {
			var (
				res json.RawMessage
				err error
			)
			tr.time(id, "expt.execute."+r.Type, 0, func() { res, err = service.Execute(ctx, env, r) })
			if err != nil {
				return nil, fmt.Errorf("layer execute %s: %w", r.Type, err)
			}
			results[j] = append(results[j], res)
		}
	}
	for _, typ := range executedTypes {
		if len(tr.millis("expt.execute."+typ)) == 0 {
			for _, r := range mixedReference() {
				if r.Type != typ {
					continue
				}
				for k := 0; k <= layerReps; k++ {
					var err error
					call := func() { _, err = service.Execute(ctx, env, r) }
					if k == 0 {
						call() // warm
					} else {
						tr.time("layer-reference", "expt.execute."+typ, 0, call)
					}
					if err != nil {
						return nil, fmt.Errorf("layer execute %s: %w", typ, err)
					}
				}
			}
		}
		out.set("expt.execute_ms."+typ, "ms", median(tr.millis("expt.execute."+typ)))
	}
	return results, nil
}

// layerJournal appends the records the service journals for each job —
// accepted with the canonical request, running, done with the results —
// to a fresh fsync'd journal, and then to one whose live state already
// exceeds the default segment bound.
func layerJournal(workload string, traffic [][]service.ExperimentRequest, results [][]json.RawMessage, tr *tracer, out *outcome) error {
	jobs := make([][]journal.Record, len(traffic))
	for j, job := range traffic {
		canon := append([]service.ExperimentRequest(nil), job...)
		for i := range canon {
			// The service's canonical form drops the result-neutral knobs.
			canon[i].Workers, canon[i].ShotWorkers, canon[i].BatchLanes = 0, 0, 0
		}
		request, err := json.Marshal(canon)
		if err != nil {
			return err
		}
		res, err := json.Marshal(results[j])
		if err != nil {
			return err
		}
		jobs[j] = []journal.Record{
			journal.Accepted("", "", hexSHA(request), request),
			journal.Running(""),
			journal.Done("", hexSHA(res), res),
		}
	}
	dir := benchDir(workload + "-layer-journal")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	jr, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		return err
	}
	if err := appendJobs(jr, jobs, 0, len(jobs), "journal.append", tr); err != nil {
		jr.Close()
		return err
	}
	if err := jr.Close(); err != nil {
		return err
	}
	us := tr.durations("journal.append", time.Microsecond)
	out.set("journal.append_us.p50", "us", quantile(us, 0.5))
	out.set("journal.append_us.p90", "us", quantile(us, 0.9))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}

	// Fill a journal past the default segment bound with the same jobs
	// under new IDs (without rotation or fsync: this is set-up), reopen
	// it with the defaults, and time appends there.
	jr, err = journal.Open(journal.Options{Dir: dir, MaxSegmentBytes: 1 << 40, DisableFsync: true})
	if err != nil {
		return err
	}
	n := 0
	for size := 0; size < overBoundBytes; n++ {
		for _, rec := range jobs[n%len(jobs)] {
			if rec.Type == journal.TypeRunning {
				continue // compaction drops it
			}
			rec.Job = fmt.Sprintf("job-%d", n+1)
			b, err := json.Marshal(rec)
			if err != nil {
				jr.Close()
				return err
			}
			size += len(b) + 8 // frame header
			if err := jr.Append(rec); err != nil {
				jr.Close()
				return err
			}
		}
	}
	if err := jr.Close(); err != nil {
		return err
	}
	if jr, err = journal.Open(journal.Options{Dir: dir}); err != nil {
		return err
	}
	if err := appendJobs(jr, jobs, n, overBoundJobs, "journal.append_over_bound", tr); err != nil {
		jr.Close()
		return err
	}
	if err := jr.Close(); err != nil {
		return err
	}
	out.set("journal.append_us.over_bound", "us", median(tr.durations("journal.append_over_bound", time.Microsecond)))
	return os.RemoveAll(dir)
}

// appendJobs appends count jobs' records, cycling through jobs and
// numbering them from first+1, one span per append.
func appendJobs(jr *journal.Journal, jobs [][]journal.Record, first, count int, span string, tr *tracer) error {
	for k := 0; k < count; k++ {
		id := fmt.Sprintf("job-%d", first+k+1)
		for _, rec := range jobs[(first+k)%len(jobs)] {
			rec.Job = id
			var err error
			tr.time(id, span, 0, func() { err = jr.Append(rec) })
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func hexSHA(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// layerCore times core.New for each machine configuration of one job
// and Machine.ResetState on each built machine.
func layerCore(job []service.ExperimentRequest, tr *tracer, out *outcome) error {
	seen := make(map[string]bool)
	var alloc, resets uint64
	for _, r := range job {
		cfg := machineConfig(r)
		cfg.Seed = layerSeed
		key := fmt.Sprintf("%v", cfg)
		if seen[key] {
			continue
		}
		seen[key] = true
		var (
			m   *core.Machine
			err error
		)
		for k := 0; k < layerReps; k++ {
			tr.time("core", "core.new", 0, func() { m, err = core.New(cfg) })
			if err != nil {
				return err
			}
		}
		for k := 0; k < resetReps; k++ {
			seed := int64(k)
			tr.time("core", "core.reset", 0, func() { m.ResetState(seed) })
		}
		// Allocation is counted in a loop of its own: recording spans
		// allocates too.
		a0 := allocBytes()
		for k := 0; k < resetReps; k++ {
			m.ResetState(int64(k))
		}
		alloc += allocBytes() - a0
		resets += resetReps
	}
	out.set("core.new_ms", "ms", median(tr.millis("core.new")))
	out.set("core.reset_us", "us", median(tr.durations("core.reset", time.Microsecond)))
	out.set("core.reset_alloc_bytes", "bytes", float64(alloc)/float64(resets))
	return nil
}

// layerAssemble times asm.Assemble on each distinct program text the
// workload sends.
func layerAssemble(traffic [][]service.ExperimentRequest, ref service.ExperimentRequest, tr *tracer, out *outcome) error {
	texts := map[string]bool{ref.Program: true}
	for _, job := range traffic {
		for _, r := range job {
			if r.Type == "asm" {
				texts[r.Program] = true
			}
		}
	}
	for text := range texts {
		for k := 0; k < assembleReps; k++ {
			var err error
			tr.time("asm", "asm.assemble", 0, func() { _, err = asm.Assemble(text) })
			if err != nil {
				return err
			}
		}
	}
	out.set("asm.assemble_us", "us", median(tr.durations("asm.assemble", time.Microsecond)))
	return nil
}

// layerShot times full-pipeline shots (Machine.RunProgram, one shot per
// call) of the active-reset cycle on one trajectory qubit and reports
// the controller's and machine's event counts per shot — model
// statistics that no simulator-speed change may move.
func layerShot(tr *tracer, out *outcome) error {
	prog, err := asm.Assemble(activeReset)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Backend = core.BackendTrajectory
	cfg.Seed = layerSeed
	m, err := core.New(cfg)
	if err != nil {
		return err
	}
	steps0, pulses0, meas0 := m.Controller.Steps, m.PulsesPlayed, m.Measurements
	var busy time.Duration
	for k := 0; k < fullShots; k++ {
		busy += tr.time("core", "core.shot", 0, func() { err = m.RunProgram(prog) })
		if err != nil {
			return err
		}
	}
	steps := m.Controller.Steps - steps0
	out.set("core.shot_us", "us", median(tr.durations("core.shot", time.Microsecond)))
	out.set("exec.host_ns_per_instr", "ns", float64(busy)/float64(steps))
	out.set("exec.instrs_per_shot", "count", float64(steps)/fullShots)
	out.set("exec.pulses_per_shot", "count", float64(m.PulsesPlayed-pulses0)/fullShots)
	out.set("exec.measurements_per_shot", "count", float64(m.Measurements-meas0)/fullShots)

	a0 := allocBytes()
	for k := 0; k < fullShots; k++ {
		if err := m.RunProgram(prog); err != nil {
			return err
		}
	}
	out.set("core.shot_alloc_bytes", "bytes", float64(allocBytes()-a0)/fullShots)
	return nil
}

// layerReplay measures the replay engine on the workload's asm program:
// the compile cost (a first run on a fresh machine minus a warmed run of
// equal shots), scalar and batched per-shot time, and, by running the
// request's shard plan shard by shard, the replayed share and the
// sharding overhead in lead shots.
func layerReplay(ref service.ExperimentRequest, tr *tracer, out *outcome) error {
	ctx := context.Background()
	prog, err := asm.Assemble(ref.Program)
	if err != nil {
		return err
	}
	cfg := machineConfig(ref)
	cfg.Seed = layerSeed
	run := func(m *core.Machine, shots int) (replay.Stats, error) {
		return replay.Run(ctx, m, prog, replay.Options{Shots: shots})
	}

	var compile []float64
	var m *core.Machine
	for k := 0; k < layerReps; k++ {
		if m, err = core.New(cfg); err != nil {
			return err
		}
		first := tr.time("replay", "replay.first_run", 0, func() { _, err = run(m, compileShots) })
		if err != nil {
			return err
		}
		m.ResetState(layerSeed)
		warm := tr.time("replay", "replay.warm_run", 0, func() { _, err = run(m, compileShots) })
		if err != nil {
			return err
		}
		compile = append(compile, millis(first-warm))
	}
	out.set("replay.compile_ms", "ms", median(compile))

	var scalar []float64
	for k := 0; k < 3; k++ {
		m.ResetState(layerSeed)
		d := tr.time("replay", "replay.run", 0, func() { _, err = run(m, replayShots) })
		if err != nil {
			return err
		}
		scalar = append(scalar, float64(d)/replayShots)
	}
	out.set("replay.shot_ns", "ns", median(scalar))

	lanes := make([]replay.BatchLane, jobLanes)
	for k := range lanes {
		if lanes[k].M, err = core.New(cfg); err != nil {
			return err
		}
		lanes[k].BaseShot = k * replayShots / jobLanes
	}
	var batched []float64
	for k := 0; k <= 3; k++ {
		for i := range lanes {
			lanes[i].M.ResetState(expt.DeriveSeed(layerSeed, i))
		}
		d := tr.time("replay", "replay.run_batch", 0, func() { _, err = replay.RunBatch(ctx, prog, lanes, replayShots/jobLanes, replay.ModeAuto) })
		if err != nil {
			return err
		}
		if k > 0 { // the first call compiles
			batched = append(batched, float64(d)/replayShots)
		}
	}
	out.set("replay.batch_shot_ns", "ns", median(batched))

	// The request's shard plan, shard by shard, as expt runs it: a nil
	// plan is one stream on the request seed, shard k of a plan runs on
	// DeriveSeed(seed, k).
	var merged replay.Stats
	plan := expt.ShotShardPlan(ref.Rounds)
	if plan == nil {
		m.ResetState(ref.Seed)
		if merged, err = run(m, ref.Rounds); err != nil {
			return err
		}
	}
	base := 0
	for k, n := range plan {
		m.ResetState(expt.DeriveSeed(ref.Seed, k))
		st, err := replay.Run(ctx, m, prog, replay.Options{Shots: n, BaseShot: base})
		if err != nil {
			return err
		}
		merged.Merge(st)
		base += n
	}
	out.set("replay.replayed_share", "ratio", float64(merged.Replayed)/float64(ref.Rounds))
	out.set("replay.overhead_shots", "count", float64(merged.Overhead))

	// Cross-check against the engine's own account of the same request.
	res, err := service.Execute(ctx, expt.NewEnv(), ref)
	if err != nil {
		return err
	}
	var doc struct {
		Result struct {
			Replayed int `json:"replayed"`
		} `json:"result"`
	}
	if err := json.Unmarshal(res, &doc); err != nil {
		return err
	}
	if doc.Result.Replayed != merged.Replayed {
		out.invalid("replayed shots: shard-by-shard %d, service.Execute %d", merged.Replayed, doc.Result.Replayed)
	}
	return nil
}

// layerModel reports the fitted T1 and RB error per Clifford of
// serve_mixed's reference request. They are simulated-physics results:
// pinned, never validated against hardware.
func layerModel(out *outcome) error {
	env := expt.NewEnv()
	for _, r := range mixedReference() {
		if r.Type != "t1" && r.Type != "rb" {
			continue
		}
		res, err := service.Execute(context.Background(), env, r)
		if err != nil {
			return err
		}
		var doc struct {
			Result struct {
				Fit struct{ Tau, P float64 }
			} `json:"result"`
		}
		if err := json.Unmarshal(res, &doc); err != nil {
			return err
		}
		if r.Type == "t1" {
			out.set("model.t1_fit", "sim_us", doc.Result.Fit.Tau*1e6)
		} else {
			out.set("model.rb_error_per_clifford", "ratio", (1-doc.Result.Fit.P)/2)
		}
	}
	return nil
}
