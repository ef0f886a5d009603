package main

import (
	"context"
	"fmt"
	"time"

	"quma/internal/expt"
	"quma/internal/service"
)

// runJob runs job_replay: the workload's one large job, executed again
// and again through service.Execute on a long-lived Env. shots_per_s is
// the median over the window's jobs of the job's shots divided by its
// wall time.
func runJob(o options) (*outcome, error) {
	p, err := loadPins()
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	v := variant(o.seed)
	job := jobRequest(v)
	want := p.Results[o.workload][v]

	reps := setupReps
	if o.trace {
		reps = 1
	}
	var (
		env    *expt.Env
		setups []float64
	)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		env = expt.NewEnv()
		res, err := service.Execute(context.Background(), env, job[0])
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if got, err := documentDigest(res); err != nil || got != want {
			out.invalid("warm-up result digest %s, pinned %s (%v)", got, want, err)
		}
	}

	d := time.Duration(o.seconds) * time.Second
	if !o.trace {
		w := jobWindow(env, job[0], want, d, nil, out)
		out.set("shots_per_s", "1/s", median(w.plain))
		out.set("experiments_per_s", "1/s", float64(len(w.plain))/w.end.Sub(w.start).Seconds())
		out.set("latency_p50_ms", "ms", quantile(w.wallMS, 0.5))
		out.set("latency_p90_ms", "ms", quantile(w.wallMS, 0.9))
		out.set("setup_s", "s", median(setups))
		out.set("peak_rss_mb", "MB", peakRSSMB())
		return out, nil
	}

	tr := newTracer()
	w := jobWindow(env, job[0], want, d, tr, out)
	gcMetrics(w.gc, len(w.traced), out)
	out.set("trace.overhead_share", "ratio", 1-median(w.traced)/median(w.plain))

	if err := jobThroughService(o.workload, v, p, tr, out); err != nil {
		return nil, err
	}
	if err := layerRun(o.workload, [][]service.ExperimentRequest{job}, tr, out); err != nil {
		return nil, err
	}
	if err := checkPins(o.workload, out); err != nil {
		return nil, err
	}
	return out, tr.write(benchDir(fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed)))
}

// jobRates is what one job window measured: shots per second of each
// untraced and each traced execution, the wall time in ms of each
// untraced one, the Go runtime's accounting over the traced ones, and
// the window's start and end.
type jobRates struct {
	plain, traced []float64
	wallMS        []float64
	gc            gcSample
	start, end    time.Time
}

// jobWindow executes the job until the window closes (at least once;
// with a tracer, at least twice). With a tracer, executions alternate
// between untraced and traced (recorded as a span, with the runtime's
// allocation and GC CPU read around it), so drift during the window
// affects both alike. Every result document must match the pinned
// digest.
func jobWindow(env *expt.Env, req service.ExperimentRequest, want string, d time.Duration, tr *tracer, out *outcome) jobRates {
	w := jobRates{start: time.Now()}
	deadline := w.start.Add(d)
	least := 1
	if tr != nil {
		least = 2
	}
	for i := 0; i < least || time.Now().Before(deadline); i++ {
		traced := tr != nil && i%2 == 1
		out.attempted++
		var gc0 gcSample
		if traced {
			gc0 = readGC()
		}
		start := time.Now()
		res, err := service.Execute(context.Background(), env, req)
		end := time.Now()
		w.end = end
		if traced {
			w.gc = w.gc.add(readGC().since(gc0))
			tr.add(fmt.Sprintf("job-%d", i), "expt.job", 0, start, end)
		}
		if err != nil {
			out.fail("job %d: %v", i, err)
			continue
		}
		if got, err := documentDigest(res); err != nil || got != want {
			out.fail("job %d: result digest %s, pinned %s (%v)", i, got, want, err)
			continue
		}
		rate := float64(req.Rounds) / end.Sub(start).Seconds()
		if traced {
			w.traced = append(w.traced, rate)
		} else {
			w.plain = append(w.plain, rate)
			w.wallMS = append(w.wallMS, millis(end.Sub(start)))
		}
	}
	return w
}

// jobThroughService submits the job over HTTP to a journaled server,
// one variant per client, and reports the service layer's outside-in
// metrics for it.
func jobThroughService(workload string, v int, p *pins, tr *tracer, out *outcome) error {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	cfg, segmentBytes := serverConfig(workload)
	srv, err := startServer(benchDir(workload+"-journal"), cfg, segmentBytes)
	if err != nil {
		return err
	}
	w, err := runWindow(jobSchedule{v: v}, hc, srv, 0, nil)
	if cerr := srv.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	w.check(workload, out)
	for _, r := range w.recs {
		traceJob(tr, "service-", r)
		want := p.Results[workload][(v+r.client)%jobVariants]
		if r.err == nil && fmt.Sprintf("%x", r.digest) != want {
			out.fail("client %d: served result digest %x, pinned %s", r.client, r.digest, want)
		}
	}
	serviceMetrics(tr, w, out)
	return nil
}

// jobSchedule sends one job per client: the run's variant and the next.
type jobSchedule struct{ v int }

func (s jobSchedule) block() int { return 1 }

func (s jobSchedule) next(client, i int) submission {
	return submission{client: client, index: i, reqs: jobRequest((s.v + client) % jobVariants)}
}
