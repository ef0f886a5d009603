// batch.go — the lockstep finish of an engine run: several shot shards
// ("lanes") replay their steady-state shots together on one compiled
// schedule via qphys.TrajBatch.
//
// RunBatch takes this path only when every lane of a multi-lane run
// detected replay safety on its own machine, every lane's backend is the
// trajectory state, and every lane's recorded schedule is
// value-identical to lane 0's (lanes are distinct machines, so pointer
// identity cannot hold across them — but identical configs produce
// value-identical schedules, and the compiled tables derive from matrix
// values). Each lane keeps its own PRNG stream and measurement chain, so
// every lane stays bit-identical to its per-lane compiled finish.
package replay

import (
	"context"
	"fmt"

	"quma/internal/isa"
	"quma/internal/qphys"
)

// runLockstep replays shots lead..shots-1 of every lane in lockstep: one
// compiled schedule (lane 0's memo slot, validated value-identical
// across lanes by the caller), one SoA executor, per-lane measurement
// chains and result delivery.
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

// matrixEqualValue compares two matrices entry by entry — the cross-
// machine analogue of sameMatrix, which relies on cache-pointer
// identity that cannot hold between distinct machines.
func matrixEqualValue(a, b qphys.Matrix) bool {
	if a.N != b.N || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// krausEqualValue compares two Kraus sets operator by operator.
func krausEqualValue(a, b []qphys.Matrix) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !matrixEqualValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

// schedulesEqualValue compares two recorded schedules by value. Lanes of
// a batch are separate machines whose schedules alias separate caches;
// identical configurations record value-identical schedules, and the
// compiled form derives from matrix values alone, so value equality is
// exactly the condition under which one compiled schedule serves every
// lane bit-identically.
func schedulesEqualValue(a, b []op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.kind != y.kind || x.q != y.q || x.qb != y.qb {
			return false
		}
		if !matrixEqualValue(x.u, y.u) || !krausEqualValue(x.kraus, y.kraus) {
			return false
		}
	}
	return true
}
