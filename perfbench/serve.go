package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"quma/internal/journal"
	"quma/internal/service"
)

// serverConfig returns the service configuration of a workload's server
// and its journal's segment bound (0 keeps the journal default). Every
// server has two workers. serve_small retains jobs and caches results
// beyond any run's job count, so that its warmed catalogue is never
// evicted; serve_mixed and job_replay keep the service defaults.
//
// Compaction rewrites the journal's live state, so the segment bound
// must hold the retained set: serve_small's is sized for its retention
// at about 1 KB per job. Under the default 4 MiB bound serve_small would
// pass it after about 5,000 fresh jobs, and from then on every append
// rewrites the whole live state; journal.append_us.over_bound measures
// that cost on every workload.
func serverConfig(workload string) (service.Config, int64) {
	cfg := service.Config{Workers: 2}
	if workload != "serve_small" {
		return cfg, 0
	}
	cfg.MaxRetainedJobs = 1 << 16
	cfg.CacheSize = 1 << 16
	return cfg, 64 << 20
}

// server is an in-process service.Server with a fsync'd journal behind
// a loopback HTTP listener.
type server struct {
	dir    string
	jr     *journal.Journal
	svc    *service.Server
	hs     *http.Server
	served chan error
	base   string
}

// startServer opens a fresh journal in dir and serves the API on a
// loopback port.
func startServer(dir string, cfg service.Config, segmentBytes int64) (*server, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	jr, err := journal.Open(journal.Options{Dir: dir, MaxSegmentBytes: segmentBytes})
	if err != nil {
		return nil, err
	}
	cfg.Journal = jr
	svc := service.New(cfg).Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Drain()
		jr.Close()
		return nil, err
	}
	s := &server{dir: dir, jr: jr, svc: svc, hs: &http.Server{Handler: svc.Handler()}, served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, drains the service, closes the journal and
// removes its directory.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.svc.Drain()
	if jerr := s.jr.Close(); err == nil {
		err = jerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// cacheCounters reads the result cache block of /healthz.
type cacheCounters struct {
	Hits              uint64 `json:"hits"`
	Misses            uint64 `json:"misses"`
	CapacityEvictions uint64 `json:"capacity_evictions"`
	Invalidations     uint64 `json:"invalidations"`
}

// add sums two windows' counters.
func (c cacheCounters) add(d cacheCounters) cacheCounters {
	return cacheCounters{
		Hits: c.Hits + d.Hits, Misses: c.Misses + d.Misses,
		CapacityEvictions: c.CapacityEvictions + d.CapacityEvictions, Invalidations: c.Invalidations + d.Invalidations,
	}
}

func (s *server) cache(hc *http.Client) (cacheCounters, error) {
	var h struct {
		Cache *cacheCounters `json:"cache"`
	}
	resp, err := hc.Get(s.base + "/healthz")
	if err != nil {
		return cacheCounters{}, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return cacheCounters{}, fmt.Errorf("healthz: %w", err)
	}
	if h.Cache == nil {
		return cacheCounters{}, errors.New("healthz: no cache block")
	}
	return *h.Cache, nil
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients},
	}
}

// submission is one job as a client sent it.
type submission struct {
	client, index int
	reqs          []service.ExperimentRequest
	// repeat marks a scheduled cache hit.
	repeat bool
}

// jobRecord is what a client observed of one job, timed from outside.
type jobRecord struct {
	submission
	start    time.Time // before POST /v1/jobs
	ack      time.Time // submit response read
	running  time.Time // "running" event read from the stream (zero for cache hits)
	terminal time.Time // terminal event read (ack time for cache hits)
	fetch    time.Time // before GET /result
	end      time.Time // result bytes received
	cacheHit bool
	digest   [32]byte // SHA-256 of the served result document
	err      error
}

// runOneJob submits one job, waits for its terminal event on the SSE
// stream and fetches the result document.
func runOneJob(hc *http.Client, base string, sub submission) jobRecord {
	rec := jobRecord{submission: sub}
	body, err := json.Marshal(service.SubmitRequest{Experiments: sub.reqs})
	if err != nil {
		rec.err = err
		return rec
	}
	rec.start = time.Now()
	resp, err := hc.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	ackBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.ack = time.Now()
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	var ack struct {
		ID     string `json:"id"`
		Cache  string `json:"cache"`
		Status string `json:"status"`
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		rec.err = fmt.Errorf("submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(ackBody))
		return rec
	}
	if err := json.Unmarshal(ackBody, &ack); err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	rec.cacheHit = ack.Cache == "hit"
	status := ack.Status
	if status == service.StatusDone {
		rec.terminal = rec.ack
	} else {
		if status, err = awaitTerminal(hc, base, ack.ID, &rec); err != nil {
			rec.err = err
			return rec
		}
	}
	if status != service.StatusDone {
		rec.err = fmt.Errorf("job %s ended %s", ack.ID, status)
		return rec
	}
	rec.fetch = time.Now()
	rresp, err := hc.Get(base + "/v1/jobs/" + ack.ID + "/result")
	if err != nil {
		rec.err = fmt.Errorf("result: %w", err)
		return rec
	}
	doc, err := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	rec.end = time.Now()
	if err != nil {
		rec.err = fmt.Errorf("result: %w", err)
		return rec
	}
	if rresp.StatusCode != http.StatusOK {
		rec.err = fmt.Errorf("result: status %d: %s", rresp.StatusCode, bytes.TrimSpace(doc))
		return rec
	}
	rec.digest = sha256.Sum256(doc)
	return rec
}

// awaitTerminal reads the job's SSE stream until its terminal event,
// timestamping the first "running" event and the terminal one.
func awaitTerminal(hc *http.Client, base, id string, rec *jobRecord) (string, error) {
	resp, err := hc.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return "", fmt.Errorf("stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		var ev struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(data, &ev); err != nil {
			return "", fmt.Errorf("stream: %w", err)
		}
		switch ev.Status {
		case service.StatusQueued:
		case service.StatusRunning:
			if rec.running.IsZero() {
				rec.running = time.Now()
			}
		default:
			rec.terminal = time.Now()
			// Drain the rest so the connection is reused.
			_, err := io.Copy(io.Discard, resp.Body)
			return ev.Status, err
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("stream: %w", err)
	}
	return "", errors.New("stream: ended without a terminal event")
}

// closedLoop runs the schedule with `clients` goroutines, each sending
// its next job only after the previous one's result arrived, until the
// deadline. A client completes at least one block and stops only at a
// block boundary (index multiple of block), so that the executed
// schedule holds whole blocks.
func closedLoop(hc *http.Client, base string, deadline time.Time, block int, next func(client, i int) submission, onJob func(jobRecord)) []jobRecord {
	per := make([][]jobRecord, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i == 0 || i%block != 0 || time.Now().Before(deadline); i++ {
				r := runOneJob(hc, base, next(c, i))
				if onJob != nil {
					onJob(r)
				}
				per[c] = append(per[c], r)
			}
		}()
	}
	wg.Wait()
	var all []jobRecord
	for _, recs := range per {
		all = append(all, recs...)
	}
	return all
}

// expectedDocument is the result document the service serves for a job
// whose experiments produced results: the same envelope and indentation
// as the server's writer.
func expectedDocument(results []json.RawMessage) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	err := enc.Encode(struct {
		Results []json.RawMessage `json:"results"`
	}{Results: results})
	return b.Bytes(), err
}

// benchDir is the benchmark's scratch directory inside the checkout.
func benchDir(parts ...string) string {
	return filepath.Join(append([]string{".bench_build", "perfbench"}, parts...)...)
}
