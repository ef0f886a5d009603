// Command quma-serve runs the quma batch experiment service: a
// long-lived HTTP/JSON API (internal/service) that accepts batches of
// experiment requests, executes them on a bounded worker pool over a
// shared machine/schedule cache environment, and serves job status,
// results, and streaming progress.
//
// The service determinism contract makes it a drop-in for the one-shot
// CLIs: a job's result JSON is bit-identical to running the same
// experiments directly through internal/expt, regardless of load,
// queue order, or worker count.
//
// Usage:
//
//	quma-serve -addr :8077 -queue 64 -workers 4 -job-timeout 5m
//	quma-serve -once batch.json     # no HTTP: execute a batch file,
//	                                # print the results array (the CI
//	                                # smoke diffs this against the
//	                                # server's /result body)
//	quma-serve -client http://host:8077 batch.json
//	                                # submit the batch to a live server,
//	                                # retrying transient 429/503 and
//	                                # connection errors with capped
//	                                # exponential backoff, poll to
//	                                # completion, print the results array
//	                                # (byte-identical to -once output)
//	quma-serve -journal-dir /var/lib/quma/journal
//	                                # durable mode: accepted jobs survive
//	                                # a crash — on restart the journal
//	                                # replays, unfinished jobs re-execute
//	                                # deterministically under their
//	                                # original IDs
//	quma-serve -api-keys tenants.json -cache 1024
//	                                # multi-tenant mode: requests carrying
//	                                # Authorization: Bearer <key> run under
//	                                # their tenant's quotas and priority
//	                                # class; unauthenticated requests stay
//	                                # the anonymous tenant. -cache sizes
//	                                # the content-addressed result cache
//	                                # (0 disables): repeat submissions of
//	                                # an identical batch are answered
//	                                # immediately from the retained
//	                                # original job, byte-identical by
//	                                # construction
//	quma-serve -client http://host:8077 -api-key k3y batch.json
//	                                # authenticate the client submission
//	                                # as the tenant owning k3y
//
// The -api-keys file is JSON: {"tenants": [{"name": ..., "key": ...,
// "class": "interactive"|"batch", "max_queued_jobs": N,
// "max_experiments_in_flight": M}, ...]} — see service.TenantConfig.
//
// Durability: with -journal-dir set, every accepted job is written to a
// write-ahead log and fsync'd before the submission is acknowledged,
// and every state transition after it is written too. A killed server restarted on
// the same directory recovers: finished jobs serve their journaled
// results byte-for-byte, unfinished jobs re-execute — and because
// results are pure functions of requests, re-execution reproduces the
// exact bytes a crash-free run would have produced. Clients pair this
// with the Idempotency-Key header (-key) to make resubmission after a
// connection loss safe: a duplicate submission returns the original
// job instead of creating a new one.
//
// Shutdown: SIGINT/SIGTERM stops intake (503), finishes every queued
// and running job, then exits. With -drain-timeout set, jobs still
// running when the deadline expires are canceled through the job
// context (they end `canceled`, retaining no partial results) so the
// process exit time is bounded.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"quma/internal/expt"
	"quma/internal/journal"
	"quma/internal/service"
)

// options collects the parsed flags; one struct rather than a positional
// parade so tests can state only what they exercise.
type options struct {
	addr         string
	queue        int
	workers      int
	jobTimeout   time.Duration
	maxBatch     int
	drainTimeout time.Duration
	once         string
	client       string
	journalDir   string
	key          string
	apiKeys      string
	apiKey       string
	cacheSize    int
	args         []string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8077", "HTTP listen address")
	flag.IntVar(&o.queue, "queue", 64, "job queue bound (full queue returns 429)")
	flag.IntVar(&o.workers, "workers", 2, "concurrent job executors (results never depend on this)")
	flag.DurationVar(&o.jobTimeout, "job-timeout", 5*time.Minute, "per-job execution time bound")
	flag.IntVar(&o.maxBatch, "max-batch", 64, "experiments allowed per job")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 0, "hard deadline for shutdown drain; expiring cancels in-flight jobs (0 waits forever)")
	flag.StringVar(&o.once, "once", "", "execute the batch request in this JSON file directly (no HTTP) and print the results array")
	flag.StringVar(&o.client, "client", "", "submit the batch file given as the positional argument to this server URL and print the results array")
	flag.StringVar(&o.journalDir, "journal-dir", "", "directory for the durable job journal; accepted jobs survive a crash and recover on restart (empty disables durability)")
	flag.StringVar(&o.key, "key", "", "Idempotency-Key header for -client submissions: resubmitting the same batch under the same key returns the original job instead of a duplicate")
	flag.StringVar(&o.apiKeys, "api-keys", "", "tenant API-key file (JSON); enables per-tenant quotas and priority classes, anonymous requests still admitted (empty leaves the server anonymous-only)")
	flag.StringVar(&o.apiKey, "api-key", "", "bearer API key for -client requests (Authorization: Bearer <key>)")
	flag.IntVar(&o.cacheSize, "cache", 256, "content-addressed result cache entries: repeat submissions of an identical batch are served from the retained original job (0 disables)")
	flag.Parse()
	o.args = flag.Args()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "quma-serve:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.queue <= 0 || o.workers <= 0 || o.maxBatch <= 0 {
		return fmt.Errorf("-queue, -workers and -max-batch must be positive")
	}
	if o.once != "" {
		return runOnce(o.once)
	}
	if o.client != "" {
		if len(o.args) != 1 {
			return fmt.Errorf("-client needs exactly one batch file argument, got %d", len(o.args))
		}
		return runClient(o.client, o.args[0], o.key, o.apiKey, os.Stdout)
	}

	cfg := service.Config{
		QueueSize:  o.queue,
		Workers:    o.workers,
		JobTimeout: o.jobTimeout,
		MaxBatch:   o.maxBatch,
		CacheSize:  o.cacheSize,
	}
	if o.cacheSize <= 0 {
		cfg.CacheSize = -1 // flag 0 means off; Config 0 means default
	}
	if o.apiKeys != "" {
		tenants, err := service.LoadAPIKeys(o.apiKeys)
		if err != nil {
			return fmt.Errorf("load api keys: %w", err)
		}
		cfg.Tenants = tenants
		fmt.Printf("quma-serve: %d tenants loaded from %s\n", len(tenants), o.apiKeys)
	}
	if o.journalDir != "" {
		jr, err := journal.Open(journal.Options{Dir: o.journalDir})
		if err != nil {
			return fmt.Errorf("open journal: %w", err)
		}
		// The server journals through jr until Drain returns; close after.
		defer jr.Close()
		cfg.Journal = jr
		st := jr.Stats()
		fmt.Printf("quma-serve: journal %s replayed %d records across %d segments (%d jobs)\n",
			o.journalDir, st.Records, st.Segments, st.Jobs)
		if st.TruncatedBytes > 0 || st.DroppedSegments > 0 {
			fmt.Printf("quma-serve: journal recovered with truncation: %d bytes of torn tail, %d later segments dropped\n",
				st.TruncatedBytes, st.DroppedSegments)
		}
	}
	srv := service.New(cfg).Start()
	hs := &http.Server{Addr: o.addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("quma-serve listening on %s (queue %d, workers %d, job timeout %v)\n", o.addr, o.queue, o.workers, o.jobTimeout)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("quma-serve: %v — draining\n", sig)
		srv.DrainTimeout(o.drainTimeout)
		// Every accepted job has reached a terminal state; let in-flight
		// status/result responses complete instead of resetting their
		// connections.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return hs.Shutdown(ctx)
	}
}

// retryDelay computes the backoff before retry `attempt` (0-based):
// capped exponential growth from 100ms with up to 25% random jitter, or
// the server's Retry-After hint (seconds) when one was given — the hint
// still gets jitter so a herd of clients told "1" does not return as a
// herd. The jitter source is math/rand/v2, which is seeded per process:
// a fleet of clients restarted together (the crash-recovery stampede)
// draws distinct jitter, where the old global math/rand source gave
// every process the identical backoff schedule and defeated the herd
// protection it existed for.
func retryDelay(attempt int, retryAfter string) time.Duration {
	d := 100 * time.Millisecond << attempt
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	if s, err := strconv.Atoi(retryAfter); err == nil && s >= 0 {
		d = time.Duration(s) * time.Second
		if d > 5*time.Second {
			d = 5 * time.Second
		}
	}
	return d + time.Duration(rand.Int64N(int64(d)/4+1))
}

// drainClose drains a response body before closing it so the underlying
// HTTP connection returns to the keep-alive pool. Closing an undrained
// body (the decoder stops at the JSON value, leaving the trailing
// newline) forces a new TCP connection per request — under a retry storm
// that multiplies exactly when the server is least able to absorb it.
// The drain is capped: a response too large to be one of ours is not
// worth a connection.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	body.Close()
}

// runClient drives a live server through one batch: submit (retrying
// transient rejections — 429 queue_full with its Retry-After hint, 503
// draining, connection errors while the server is still coming up),
// poll status to a terminal state, fetch the result, and print the
// results array byte-identically to what -once prints for the same
// batch (the CI smoke diffs the two).
//
// Connection errors during polling are retryable with the same capped
// backoff: against a journaled server (-journal-dir) a crash-restart
// mid-job is invisible to the client beyond latency — the job recovers
// under the same ID and the poll loop rides through the outage.
func runClient(base, path, key, apiKey string, out io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	hc := &http.Client{Timeout: 30 * time.Second}
	const maxAttempts = 8
	authorize := func(req *http.Request) {
		if apiKey != "" {
			req.Header.Set("Authorization", "Bearer "+apiKey)
		}
	}
	// getRetry absorbs connection refused/reset — the window where the
	// server is restarting — and hands back the first real response.
	getRetry := func(url string) (*http.Response, error) {
		for attempt := 0; ; attempt++ {
			hreq, err := http.NewRequest(http.MethodGet, url, nil)
			if err != nil {
				return nil, err
			}
			authorize(hreq)
			resp, err := hc.Do(hreq)
			if err == nil {
				return resp, nil
			}
			if attempt >= maxAttempts-1 {
				return nil, fmt.Errorf("after %d attempts: %w", maxAttempts, err)
			}
			time.Sleep(retryDelay(attempt, ""))
		}
	}
	var id string
	for attempt := 0; ; attempt++ {
		hreq, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(raw))
		if err != nil {
			return err
		}
		hreq.Header.Set("Content-Type", "application/json")
		if key != "" {
			hreq.Header.Set("Idempotency-Key", key)
		}
		authorize(hreq)
		resp, err := hc.Do(hreq)
		var retryAfter string
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				err = rerr
			} else {
				switch resp.StatusCode {
				// 200 is the idempotent-replay response: the key was
				// already used for this batch and the original job (possibly
				// already finished) is returned.
				case http.StatusAccepted, http.StatusOK:
					var acc struct {
						ID string `json:"id"`
					}
					if err := json.Unmarshal(body, &acc); err != nil {
						return fmt.Errorf("submit response: %w", err)
					}
					id = acc.ID
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					retryAfter = resp.Header.Get("Retry-After")
					err = fmt.Errorf("submit rejected: %d %s", resp.StatusCode, bytes.TrimSpace(body))
				default:
					// Structurally bad requests never become good by
					// retrying.
					return fmt.Errorf("submit failed: %d %s", resp.StatusCode, bytes.TrimSpace(body))
				}
			}
		}
		if id != "" {
			break
		}
		if attempt >= maxAttempts-1 {
			return fmt.Errorf("submit did not succeed after %d attempts: %w", maxAttempts, err)
		}
		time.Sleep(retryDelay(attempt, retryAfter))
	}
	for {
		resp, err := getRetry(base + "/v1/jobs/" + id)
		if err != nil {
			return err
		}
		var st struct {
			Status string `json:"status"`
			Code   string `json:"code"`
			Error  string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		drainClose(resp.Body)
		if err != nil {
			return err
		}
		switch st.Status {
		case service.StatusDone:
		case service.StatusFailed, service.StatusCanceled:
			return fmt.Errorf("job %s %s (%s): %s", id, st.Status, st.Code, st.Error)
		default:
			time.Sleep(25 * time.Millisecond)
			continue
		}
		break
	}
	resp, err := getRetry(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("result fetch failed: %d %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var doc struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return err
	}
	// The encoder re-indents the raw messages, normalizing whitespace to
	// exactly what runOnce prints for the same batch.
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc.Results)
}

// runOnce executes a batch request file through the same validation and
// execution path the HTTP service uses, on a fresh environment, and
// prints exactly the JSON array the service's /result endpoint returns
// in its "results" field — so `quma-serve -once batch.json` and a live
// server given the same batch must produce byte-identical documents
// (the CI smoke asserts this).
func runOnce(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var req service.SubmitRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(req.Experiments) == 0 {
		return fmt.Errorf("%s: batch has no experiments", path)
	}
	var invalid []error
	for i, ex := range req.Experiments {
		for _, fe := range ex.Validate(i) {
			invalid = append(invalid, fmt.Errorf("%s: %w", path, fe))
		}
	}
	if len(invalid) > 0 {
		// Report every problem at once, exactly as the HTTP path's
		// structured 400 details would.
		return errors.Join(invalid...)
	}
	env := expt.NewEnv()
	results := make([]json.RawMessage, len(req.Experiments))
	for i, ex := range req.Experiments {
		if results[i], err = service.Execute(context.Background(), env, ex); err != nil {
			return fmt.Errorf("experiments[%d] (%s): %w", i, ex.Type, err)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
