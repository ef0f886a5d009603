// batch.go — the lockstep finish of an engine run: several shot shards
// ("lanes") replay their steady-state shots together on one compiled
// schedule via qphys.TrajBatch.
//
// RunBatch takes this path only when every lane of a multi-lane run
// detected replay safety on its own machine, every lane's backend is the
// trajectory state, and every lane runs on lane 0's template and
// recorded the same schedule — compared by pointer, since the lanes
// resolve every matrix through the one template's caches. Each lane
// keeps its own PRNG stream and measurement chain, so every lane stays
// bit-identical to its per-lane compiled finish.
package replay

import (
	"context"
	"fmt"

	"quma/internal/isa"
	"quma/internal/qphys"
)

// runLockstep replays shots lead..shots-1 of every lane in lockstep: one
// compiled schedule (the shared template's memo entry), one SoA
// executor, per-lane measurement chains and result delivery.
func runLockstep(ctx context.Context, p *isa.Program, lanes []BatchLane, sched []op, lead, shots int, stats []Stats) error {
	clearProbes(lanes)
	comp := memoizedCompile(lanes[0].M, p, sched)
	trajs := make([]*qphys.Trajectory, len(lanes))
	md := make([][]MD, len(lanes))
	for i, ln := range lanes {
		stats[i].Safe, stats[i].Lead = true, lead
		trajs[i] = ln.M.State.(*qphys.Trajectory)
		md[i] = make([]MD, 0, comp.nMD)
	}
	batch := qphys.NewTrajBatch(trajs)
	measure := func(lane, q, outcome int) {
		md[lane] = append(md[lane], MD{Qubit: q, Result: lanes[lane].M.FinishMeasure(outcome)})
	}
	for shot := lead; shot < shots; shot++ {
		if (shot-lead)%ctxCheckShots == 0 {
			if err := ctx.Err(); err != nil {
				batch.Scatter()
				return fmt.Errorf("replay: preempted at shot %d: %w", lanes[0].BaseShot+shot, err)
			}
		}
		for i := range md {
			md[i] = md[i][:0]
		}
		batch.RunScheduleBatch(comp.ops, measure)
		for i, ln := range lanes {
			ln.M.PulsesPlayed += comp.pulses
			stats[i].Replayed++
			if ln.OnShot != nil {
				ln.OnShot(ln.BaseShot+shot, md[i])
			}
		}
	}
	batch.Scatter()
	return nil
}
