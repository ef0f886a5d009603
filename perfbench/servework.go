package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"quma/internal/expt"
	"quma/internal/service"
)

// setupReps is how many times a run builds its set-up; setup_s is the
// median, so one slow build does not move it.
const setupReps = 5

// oracleEvery: serve_mixed re-executes about one job in oracleEvery (a
// seeded subset, plus each client's first job) to check served bytes;
// serve_small checks every job.
const oracleEvery = 16

// mixedWarmJobs is the number of serve_mixed batches each client runs
// before timing.
const mixedWarmJobs = 32

// schedule generates one phase of a serve workload's submissions.
type schedule interface {
	next(client, i int) submission
	// block is the number of submissions a client completes before it
	// may stop.
	block() int
}

// mixedSchedule submits a fresh cold batch every time.
type mixedSchedule struct {
	g     *gen
	phase int
}

func (s mixedSchedule) block() int { return 1 }

func (s mixedSchedule) next(client, i int) submission {
	return submission{client: client, index: i, reqs: mixedBatch(s.g.machineSeed(s.phase, client, i))}
}

// smallSchedule places one fresh request at a seeded position in every
// block of smallBlock submissions; the others repeat seeded picks from
// the catalogue. Each client owns its generator.
type smallSchedule struct {
	g     *gen
	phase int
	rngs  [clients]*rand.Rand
	fresh [clients]int // position of the fresh request in the current block
}

func newSmallSchedule(g *gen, phase int) *smallSchedule {
	s := &smallSchedule{g: g, phase: phase}
	for c := range s.rngs {
		s.rngs[c] = rand.New(rand.NewSource(expt.DeriveSeed(g.seed, 1+phase*clients+c)))
	}
	return s
}

func (s *smallSchedule) block() int { return smallBlock }

func (s *smallSchedule) next(client, i int) submission {
	rng := s.rngs[client]
	if i%smallBlock == 0 {
		s.fresh[client] = rng.Intn(smallBlock)
	}
	if i%smallBlock == s.fresh[client] {
		return submission{client: client, index: i, reqs: smallRequest(s.g.machineSeed(s.phase, client, i))}
	}
	return submission{client: client, index: i, reqs: catalogueEntry(s.g, rng.Intn(catalogueSize)), repeat: true}
}

// catalogueEntry is serve_small's k-th catalogue request.
func catalogueEntry(g *gen, k int) []service.ExperimentRequest {
	return smallRequest(g.machineSeed(phaseCatalogue, 0, k))
}

// newSchedule returns the workload's schedule for one phase.
func newSchedule(workload string, g *gen, phase int) schedule {
	if workload == "serve_small" {
		return newSmallSchedule(g, phase)
	}
	return mixedSchedule{g: g, phase: phase}
}

// warmUp fills the server's caches the way each workload needs before
// timing: serve_mixed runs mixedWarmJobs batches per client (machine
// pools, program cache, compiled schedules, and a heap grown to its
// working size), serve_small submits its whole catalogue.
func warmUp(workload string, g *gen, hc *http.Client, srv *server) ([]jobRecord, error) {
	var recs []jobRecord
	if workload == "serve_small" {
		recs = closedLoop(hc, srv.base, time.Time{}, catalogueSize/clients, func(c, i int) submission {
			k := c*catalogueSize/clients + i
			return submission{client: c, index: k, reqs: catalogueEntry(g, k)}
		}, nil)
	} else {
		recs = closedLoop(hc, srv.base, time.Time{}, mixedWarmJobs, mixedSchedule{g: g, phase: phaseWarm}.next, nil)
	}
	for _, r := range recs {
		if r.err != nil {
			return nil, fmt.Errorf("warm-up: %w", r.err)
		}
	}
	return recs, nil
}

// window is one timed closed-loop run and what it observed.
type window struct {
	recs          []jobRecord
	start, end    time.Time
	before, after cacheCounters
	gc            gcSample
}

// runWindow runs the schedule's closed loop for d. onJob, when not nil,
// is called on each client's goroutine as each of its jobs completes.
func runWindow(sched schedule, hc *http.Client, srv *server, d time.Duration, onJob func(jobRecord)) (*window, error) {
	w := &window{}
	var err error
	if w.before, err = srv.cache(hc); err != nil {
		return nil, err
	}
	gc0 := readGC()
	w.start = time.Now()
	w.recs = closedLoop(hc, srv.base, w.start.Add(d), sched.block(), sched.next, onJob)
	w.end = w.start
	for _, r := range w.recs {
		if r.end.After(w.end) {
			w.end = r.end
		}
	}
	w.gc = readGC().since(gc0)
	if w.after, err = srv.cache(hc); err != nil {
		return nil, err
	}
	return w, nil
}

// experimentsPerSecond counts the experiments of successful jobs over
// the window.
func (w *window) experimentsPerSecond() float64 {
	n := 0
	for _, r := range w.recs {
		if r.err == nil {
			n += len(r.reqs)
		}
	}
	return float64(n) / w.end.Sub(w.start).Seconds()
}

// hitRatio is the server's cache hits over lookups during the window.
func (w *window) hitRatio() float64 {
	hits := w.after.Hits - w.before.Hits
	lookups := hits + w.after.Misses - w.before.Misses
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}

// check accounts the window's jobs and its cache behaviour: transport
// or HTTP failures and failed jobs are failed operations; a repeat that
// missed the cache, a fresh job that hit it, an eviction, or a hit share
// other than the scheduled one voids the run.
func (w *window) check(workload string, out *outcome) {
	out.attempted += len(w.recs)
	for _, r := range w.recs {
		if r.err != nil {
			out.fail("client %d job %d: %v", r.client, r.index, r.err)
			continue
		}
		if r.repeat != r.cacheHit {
			out.invalid("client %d job %d: scheduled repeat=%v but cache hit=%v", r.client, r.index, r.repeat, r.cacheHit)
		}
	}
	want := 0.0
	if workload == "serve_small" {
		want = float64(smallBlock-1) / smallBlock
		if w.after.CapacityEvictions != w.before.CapacityEvictions || w.after.Invalidations != w.before.Invalidations {
			out.invalid("result cache evicted entries during the window: %+v -> %+v", w.before, w.after)
		}
	}
	if got := w.hitRatio(); got != want {
		out.invalid("cache hit ratio %v, scheduled %v", got, want)
	}
}

// verifyServed compares served result documents with the document an
// in-process service.Execute of the same request produces on a fresh
// environment (the quma-serve -once path). serve_small checks every
// job; serve_mixed a seeded subset.
func verifyServed(workload string, g *gen, recs []jobRecord, out *outcome) {
	env := expt.NewEnv()
	expected := make(map[string][32]byte)
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		if workload == "serve_mixed" && r.index != 0 && expt.DeriveSeed(g.seed^0x0AC1E, r.client<<32|r.index)%oracleEvery != 0 {
			continue
		}
		key, err := json.Marshal(r.reqs)
		if err != nil {
			out.fail("oracle: %v", err)
			continue
		}
		want, ok := expected[string(key)]
		if !ok {
			results := make([]json.RawMessage, len(r.reqs))
			for i, req := range r.reqs {
				if results[i], err = service.Execute(context.Background(), env, req); err != nil {
					break
				}
			}
			var doc []byte
			if err == nil {
				doc, err = expectedDocument(results)
			}
			if err != nil {
				out.fail("oracle: client %d job %d: %v", r.client, r.index, err)
				continue
			}
			want = sha256.Sum256(doc)
			expected[string(key)] = want
		}
		if r.digest != want {
			out.fail("client %d job %d: served result differs from service.Execute of the same request", r.client, r.index)
		}
	}
}

// setUp builds a journaled server and warms it for the workload.
func setUp(workload string, g *gen, hc *http.Client) (*server, []jobRecord, error) {
	cfg, segmentBytes := serverConfig(workload)
	srv, err := startServer(benchDir(workload+"-journal"), cfg, segmentBytes)
	if err != nil {
		return nil, nil, err
	}
	warm, err := warmUp(workload, g, hc, srv)
	if err != nil {
		srv.close()
		return nil, nil, err
	}
	return srv, warm, nil
}

// runServe runs serve_mixed or serve_small.
func runServe(o options) (*outcome, error) {
	g := newGen(o.seed)
	out := newOutcome()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	d := time.Duration(o.seconds) * time.Second

	if o.trace {
		return traceServe(o, g, hc, d)
	}
	var (
		srv    *server
		warm   []jobRecord
		setups []float64
	)
	for r := 0; r < setupReps; r++ {
		if srv != nil {
			if err := srv.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if srv, warm, err = setUp(o.workload, g, hc); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	w, err := runWindow(newSchedule(o.workload, g, phaseWindow), hc, srv, d, nil)
	if cerr := srv.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	w.check(o.workload, out)
	verifyServed(o.workload, g, append(warm, w.recs...), out)
	lat := make([]float64, 0, len(w.recs))
	for _, r := range w.recs {
		if r.err == nil {
			lat = append(lat, millis(r.end.Sub(r.start)))
		}
	}
	shots := 0
	for _, r := range w.recs {
		if r.err == nil && !r.cacheHit {
			for _, req := range r.reqs {
				shots += shotsOf(req)
			}
		}
	}
	out.set("experiments_per_s", "1/s", w.experimentsPerSecond())
	out.set("shots_per_s", "1/s", float64(shots)/w.end.Sub(w.start).Seconds())
	out.set("latency_p50_ms", "ms", quantile(lat, 0.5))
	out.set("latency_p90_ms", "ms", quantile(lat, 0.9))
	out.set("setup_s", "s", median(setups))
	out.set("peak_rss_mb", "MB", rss)
	return out, nil
}

// traceServe is the traced run of a serve workload: the closed loop in
// four windows of a quarter of the time each, untraced, traced, traced,
// untraced, each on a server of its own (so every window starts from
// the same state and drift during the run cancels out of the
// comparison), and then the layer replay. In a traced window each
// client records its job's spans as the job completes.
func traceServe(o options, g *gen, hc *http.Client, d time.Duration) (*outcome, error) {
	out := newOutcome()
	tr := newTracer()
	var (
		plain, traced []float64
		gc            gcSample
		recs          []jobRecord
		before, after cacheCounters
	)
	for k, isTraced := range []bool{false, true, true, false} {
		srv, warm, err := setUp(o.workload, g, hc)
		if err != nil {
			return nil, err
		}
		var onJob func(jobRecord)
		if isTraced {
			onJob = func(r jobRecord) { traceJob(tr, fmt.Sprintf("w%d-", k), r) }
		}
		w, err := runWindow(newSchedule(o.workload, g, phaseWindow+k), hc, srv, d/4, onJob)
		if cerr := srv.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		w.check(o.workload, out)
		verifyServed(o.workload, g, append(warm, w.recs...), out)
		if !isTraced {
			plain = append(plain, w.experimentsPerSecond())
			continue
		}
		traced = append(traced, w.experimentsPerSecond())
		recs = append(recs, w.recs...)
		gc = gc.add(w.gc)
		before, after = before.add(w.before), after.add(w.after)
	}
	serviceMetrics(tr, &window{recs: recs, before: before, after: after}, out)
	out.set("trace.overhead_share", "ratio", 1-median(traced)/median(plain))
	gcMetrics(gc, len(recs), out)

	var traffic [][]service.ExperimentRequest
	sched := newSchedule(o.workload, g, phaseLayers)
	for i := 0; len(traffic) < layerJobs; i++ {
		if s := sched.next(0, i); !s.repeat {
			traffic = append(traffic, s.reqs)
		}
	}
	if err := layerRun(o.workload, traffic, tr, out); err != nil {
		return nil, err
	}
	if err := checkPins(o.workload, out); err != nil {
		return nil, err
	}
	return out, tr.write(benchDir(fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed)))
}

// traceJob records one job's outside-in spans: the job, its submit
// round trip, queue wait (ack to "running" event), run ("running" to
// terminal event) and result fetch. The stream is opened after the
// submit returns, so a job that is already running or done by then
// delivers its events together: its queue wait then includes the run
// and its run reads near zero.
func traceJob(tr *tracer, prefix string, r jobRecord) {
	if r.err != nil {
		return
	}
	id := fmt.Sprintf("%sc%d-%d", prefix, r.client, r.index)
	root := tr.add(id, "job", 0, r.start, r.end)
	tr.add(id, "service.submit", root, r.start, r.ack)
	if !r.running.IsZero() {
		tr.add(id, "service.queue_wait", root, r.ack, r.running)
		tr.add(id, "service.run", root, r.running, r.terminal)
	}
	tr.add(id, "service.fetch", root, r.fetch, r.end)
}

// serviceMetrics reports the service layer's outside-in numbers from a
// traced window.
func serviceMetrics(tr *tracer, w *window, out *outcome) {
	submit := tr.millis("service.submit")
	queue := tr.millis("service.queue_wait")
	out.set("service.submit_ms.p50", "ms", quantile(submit, 0.5))
	out.set("service.submit_ms.p90", "ms", quantile(submit, 0.9))
	out.set("service.queue_wait_ms.p50", "ms", quantile(queue, 0.5))
	out.set("service.queue_wait_ms.p90", "ms", quantile(queue, 0.9))
	out.set("service.run_ms", "ms", quantile(tr.millis("service.run"), 0.5))
	out.set("service.fetch_ms", "ms", quantile(tr.millis("service.fetch"), 0.5))
	out.set("service.cache_hit_ratio", "ratio", w.hitRatio())
	failed := 0
	for _, r := range w.recs {
		if r.err != nil {
			failed++
		}
	}
	out.set("service.failed_share", "ratio", float64(failed)/float64(len(w.recs)))
}
