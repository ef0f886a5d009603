package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quma/internal/expt"
	"quma/internal/journal"
)

// Config sizes the service.
type Config struct {
	// QueueSize bounds the job queue; a full queue rejects submissions
	// with 429 (default 64).
	QueueSize int
	// Workers is the number of concurrent job executors (default 2).
	// Experiment results never depend on it.
	Workers int
	// JobTimeout bounds one job's execution time, measured from dequeue
	// and checked between experiments (default 5 minutes).
	JobTimeout time.Duration
	// MaxBatch bounds the experiments per job (default 64).
	MaxBatch int
	// MaxRetainedJobs bounds how many terminal (done/failed/canceled)
	// jobs — and their result payloads — stay queryable (default 1024).
	// The oldest finished jobs are evicted first and then 404.
	MaxRetainedJobs int
	// CacheSize bounds the content-addressed result cache: repeat
	// submissions of a canonically identical batch are answered
	// terminal-immediately with the original retained job instead of
	// re-executing. 0 selects the default (256 entries); negative
	// disables the cache.
	CacheSize int
	// Tenants declares the API-key tenants (see TenantConfig). Empty
	// leaves the server anonymous-only — every request is admitted as
	// the unlimited, batch-class anonymous tenant, exactly the
	// pre-tenancy behavior. Invalid tenant configuration panics in New;
	// cmd/quma-serve validates via LoadAPIKeys first.
	Tenants []TenantConfig
	// Faults, when non-nil, installs fault-injection hooks on the
	// server's Env (see expt.FaultHooks). Chaos tests only; leave nil in
	// production — a nil hook set is free.
	Faults *expt.FaultHooks
	// Journal, when non-nil, makes accepted jobs durable: every state
	// transition is written to the write-ahead log, the accepted record
	// is fsync'd before the submission is acknowledged, and New replays
	// the log — restoring terminal jobs byte-for-byte and re-enqueueing
	// every non-terminal job for deterministic re-execution under its
	// original ID, in its original submit order. The caller owns the
	// journal's lifetime (open before New, close after Drain).
	// Durability never perturbs result bytes: the journal sits entirely
	// outside the execution path.
	Journal *journal.Journal
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxRetainedJobs <= 0 {
		c.MaxRetainedJobs = 1024
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	return c
}

// Job states.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// terminal reports whether a status is a job's final state.
func terminal(status string) bool {
	return status == StatusDone || status == StatusFailed || status == StatusCanceled
}

// job is one accepted batch.
type job struct {
	id string
	// reqs is the decoded batch, read by the worker and dropped once the
	// job is terminal; total is its length, kept for status reporting.
	reqs  []ExperimentRequest
	total int
	// idemKey/reqHash are the idempotency identity: the client's
	// Idempotency-Key header (if any) and the hash of the canonicalized
	// request, journaled with the accepted record so resubmissions
	// dedupe across restarts.
	idemKey string
	reqHash string
	// tenant/class are the admission identity: the journaled tenant name
	// (empty = anonymous) and the fair-queue priority class. tenantSt is
	// the live quota accounting, charged at submit and released exactly
	// once at retire (both under Server.mu); nil when no quota was
	// charged (recovered terminal jobs).
	tenant   string
	class    string
	tenantSt *tenantState

	mu sync.Mutex
	// ctx is the job's cancellation root: canceled by DELETE
	// /v1/jobs/{id} and by the drain deadline (both through abort). The
	// per-job execution deadline is layered on top at dequeue time. A
	// terminal job never runs again, so finish cancels ctx and drops it;
	// cancel is then a no-op.
	ctx       context.Context
	cancel    context.CancelFunc
	status    string
	completed int
	// doc is a done job's result document: the compact JSON array of
	// per-experiment results, the same bytes the journal's done record
	// holds. handleResult renders the served body from it.
	doc     json.RawMessage
	errCode string
	errMsg  string
	done    chan struct{} // closed on terminal state
	// events is the job's full progress history, ids 1..n — the SSE
	// reconnect backlog. Bounded: one event per state transition plus one
	// per completed experiment, so at most total+3.
	events []numberedEvent
	subs   []chan numberedEvent
}

// progressEvent is one streaming update.
type progressEvent struct {
	Status    string `json:"status"`
	Completed int    `json:"completed"`
	Total     int    `json:"total"`
	// Code classifies a terminal failure with the stable error taxonomy
	// (canceled, deadline_exceeded, internal); empty while the job is
	// live and for done jobs.
	Code  string `json:"code,omitempty"`
	Error string `json:"error,omitempty"`
}

// numberedEvent is a progressEvent with its per-job SSE id. Ids are
// monotonic within one server incarnation; after a crash recovery the
// history restarts (clients reconnecting with a stale Last-Event-ID
// still receive the terminal state — see handleStream).
type numberedEvent struct {
	ID int
	progressEvent
}

// snapshotLocked builds the current progress event; callers hold j.mu.
func (j *job) snapshotLocked() progressEvent {
	return progressEvent{Status: j.status, Completed: j.completed, Total: j.total, Code: j.errCode, Error: j.errMsg}
}

// abort cancels the job's context: a queued job then ends canceled at
// dequeue, and a running one is preempted mid-sweep. A no-op once the
// job is terminal.
func (j *job) abort() {
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	cancel()
}

// snapshot returns the job's current progress under its lock.
func (j *job) snapshot() progressEvent {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

// finish moves the job to a terminal state exactly once: later callers
// (a DELETE racing the worker, a worker racing drain) are no-ops. doc is
// the result document of a done job and nil otherwise — a canceled or
// failed job retains no partial results, by contract. A terminal job
// never runs again, so its decoded request and its context are
// released.
func (j *job) finish(status, code, msg string, doc json.RawMessage) bool {
	j.mu.Lock()
	if terminal(j.status) {
		j.mu.Unlock()
		return false
	}
	j.status, j.errCode, j.errMsg, j.doc = status, code, msg, doc
	cancel := j.cancel
	j.reqs, j.ctx, j.cancel = nil, nil, noCancel
	j.mu.Unlock()
	cancel()
	close(j.done)
	j.publish()
	return true
}

// publish appends the job's current state to its event history under
// the next id and fans it out to subscribers. Slow subscribers never
// block a worker: events are dropped on a full channel — the history
// replay and the terminal-snapshot fallback in the stream handler
// guarantee no subscriber misses the terminal state.
func (j *job) publish() {
	j.mu.Lock()
	ne := numberedEvent{ID: len(j.events) + 1, progressEvent: j.snapshotLocked()}
	j.events = append(j.events, ne)
	subs := append([]chan numberedEvent(nil), j.subs...)
	j.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- ne:
		default:
		}
	}
}

// Server is the batch experiment service. Create with New, mount
// Handler on an http.Server, and call Drain on shutdown.
type Server struct {
	cfg Config
	env *expt.Env
	mux *http.ServeMux
	jr  *journal.Journal
	// queue is the fair job queue: per-class FIFO lanes under
	// deterministic stride scheduling (queue.go). Push never blocks;
	// admission control happens in handleSubmit under s.mu.
	queue *fairQueue
	// tenants resolves API keys to quota/class state (tenant.go). The
	// table is immutable after New; the per-tenant counters it holds are
	// guarded by s.mu.
	tenants *tenantTable
	// avgJobNanos is an EWMA of completed-job execution time, feeding the
	// derived Retry-After hints. Timing only ever reaches response
	// headers, never result bytes.
	avgJobNanos atomic.Int64

	mu       sync.Mutex
	draining bool
	// committing holds journaled submissions whose accepted record is
	// written but not yet synced, by id. They are not yet in jobs, count
	// against QueueSize, and are reachable only through their
	// Idempotency-Key. commitDone (on mu) is broadcast as each commit
	// resolves; commits tracks them for DrainTimeout.
	committing map[string]*job
	commitDone *sync.Cond
	commits    sync.WaitGroup
	// cache is the content-addressed result index (cache.go), guarded by
	// s.mu; nil when disabled.
	cache *resultCache
	jobs  map[string]*job
	// idem maps Idempotency-Key → job id for every retained job that was
	// submitted with a key; entries die with their job's eviction.
	// Rebuilt from the journal at recovery.
	idem map[string]string
	// retired lists terminal job ids oldest-first; jobs beyond
	// cfg.MaxRetainedJobs are evicted from the map (bounded memory for
	// a long-lived service).
	retired []string
	nextID  int64
	wg      sync.WaitGroup
	// recovered/reenqueued count what journal replay restored, for
	// /healthz observability.
	recovered  int
	reenqueued int
}

// New builds a server. The expt.Env — and with it every assembled
// program, pooled machine, and compiled replay schedule — lives for the
// server's lifetime. Call Start to launch the worker pool; until then
// submissions are accepted but only queue.
//
// With Config.Journal set, New replays the journal before serving:
// terminal jobs come back queryable with their exact result bytes, and
// every job that was accepted but not terminal at the crash is
// re-enqueued — original ID, original submit order — for deterministic
// re-execution (the queue is sized up if the backlog exceeds
// QueueSize, so recovery never drops accepted work).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	tenants, err := newTenantTable(cfg.Tenants)
	if err != nil {
		// Static misconfiguration, caught at construction — the server
		// must not come up silently dropping a tenant's key or quota.
		panic(fmt.Sprintf("service: invalid tenant config: %v", err))
	}
	s := &Server{
		cfg:     cfg,
		env:     expt.NewEnv(),
		mux:     http.NewServeMux(),
		jr:      cfg.Journal,
		queue:   newFairQueue(),
		tenants: tenants,
		cache:   newResultCache(cfg.CacheSize),
		jobs:    make(map[string]*job),
		idem:    make(map[string]string),

		committing: make(map[string]*job),
	}
	s.commitDone = sync.NewCond(&s.mu)
	s.avgJobNanos.Store(int64(time.Second)) // neutral prior until jobs complete
	if cfg.Faults != nil {
		s.env.SetFaults(cfg.Faults)
	}
	for _, jb := range s.recoverFromJournal() {
		s.queue.push(jb)
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/jobs/{id}/progress", s.handleStream)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s
}

// recoverFromJournal rebuilds the job table from the replayed journal
// and returns the non-terminal jobs to re-enqueue, in submit order.
// Called from New before the server is visible to any request, so no
// locking is needed.
func (s *Server) recoverFromJournal() []*job {
	if s.jr == nil {
		return nil
	}
	var pending []*job
	for _, st := range s.jr.States() {
		if n, ok := strings.CutPrefix(st.ID, "job-"); ok {
			if v, err := strconv.ParseInt(n, 10, 64); err == nil && v > s.nextID {
				s.nextID = v
			}
		}
		jb := &job{id: st.ID, idemKey: st.Key, reqHash: st.ReqHash, tenant: st.Tenant, done: make(chan struct{})}
		terminalState := st.Terminal()
		if terminalState && st.Status == journal.TypeDone {
			// Integrity check: result bytes must match their journaled
			// hash; a mismatch demotes the record to non-terminal and the
			// job re-executes (determinism reproduces the true bytes).
			if hashBytes(st.Results) != st.ResultHash {
				terminalState = false
			}
		}
		if terminalState {
			// The batch size is the length of a done job's results, or of a
			// failed or canceled job's request (which never re-executes, so
			// nothing else of it is kept).
			var elems []json.RawMessage
			if st.Status != journal.TypeDone {
				json.Unmarshal(st.Request, &elems)
			} else if err := json.Unmarshal(st.Results, &elems); err != nil {
				// Undecodable results: re-execute instead.
				terminalState = false
			}
			if terminalState {
				jb.status = st.Status // journal terminal types match service statuses
				jb.errCode, jb.errMsg = st.Code, st.Error
				jb.total = len(elems)
				if st.Status == journal.TypeDone {
					jb.completed, jb.doc = len(elems), st.Results
				}
				jb.cancel = noCancel
				close(jb.done)
				jb.events = []numberedEvent{{ID: 1, progressEvent: jb.snapshotLocked()}}
				s.jobs[jb.id] = jb
				if st.Key != "" {
					s.idem[st.Key] = jb.id
				}
				if st.Status == journal.TypeDone && s.cache != nil && jb.reqHash != "" {
					// Rebuild the content-addressed index: recovered results
					// are journal-verified bytes, so a post-restart resubmit
					// hits the cache exactly as it would have pre-crash.
					// States() is Seq-ordered, so recency matches submit order.
					s.cache.insert(jb.reqHash, jb.id)
				}
				s.retired = append(s.retired, jb.id)
				s.recovered++
				continue
			}
		}
		// Non-terminal (or demoted): decode the canonical request and
		// re-enqueue for re-execution.
		var reqs []ExperimentRequest
		if err := json.Unmarshal(st.Request, &reqs); err != nil || len(reqs) == 0 {
			// A journaled request that no longer decodes cannot re-execute;
			// surface it as a failed job rather than dropping it silently.
			jb.status = StatusFailed
			jb.errCode = CodeInternal
			jb.errMsg = fmt.Sprintf("journal recovery: request undecodable: %v", err)
			jb.cancel = noCancel
			close(jb.done)
			jb.events = []numberedEvent{{ID: 1, progressEvent: jb.snapshotLocked()}}
			s.jobs[jb.id] = jb
			s.retired = append(s.retired, jb.id)
			s.journalAppend(journal.Failed(jb.id, jb.errCode, jb.errMsg))
			s.recovered++
			continue
		}
		jb.status = StatusQueued
		jb.reqs, jb.total = reqs, len(reqs)
		jb.ctx, jb.cancel = context.WithCancel(context.Background())
		// Restore the tenant's admission accounting: a re-enqueued job
		// occupies its quota exactly as it did before the crash. A tenant
		// name the current key file no longer declares resolves to
		// anonymous (unlimited) — accepted work is never dropped.
		jb.tenantSt = s.tenants.resolve(st.Tenant)
		jb.class = jb.tenantSt.class
		jb.tenantSt.acquire(len(reqs))
		jb.events = []numberedEvent{{ID: 1, progressEvent: jb.snapshotLocked()}}
		s.jobs[jb.id] = jb
		if st.Key != "" {
			s.idem[st.Key] = jb.id
		}
		pending = append(pending, jb)
		s.recovered++
		s.reenqueued++
	}
	// Recovered terminal jobs participate in the retention bound exactly
	// like live ones: trim the oldest beyond the cap now, journaling the
	// evictions so the next restart does not resurrect them.
	s.trimRetiredLocked()
	return pending
}

// noCancel is the cancel func of a job without a context: a terminal
// one, which never runs again.
func noCancel() {}

// hashBytes is the journal integrity/idempotency hash: hex SHA-256.
func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// journalWrite and journalAppend record a transition after acceptance
// best-effort: a journal failure there leaves the in-memory job to
// proceed, and if the process dies before the record lands, recovery
// simply re-executes the job (at-least-once execution with
// exactly-once-observable results, by determinism). Only the accepted
// record is load-bearing and its failure rejects the submit.
//
// Which one a transition uses is the fsync rule: records recovery can
// re-derive — running, done, evicted — are only written (losing one to
// an OS crash re-executes or re-trims the job, reproducing identical
// bytes; each is durable at the next sync or rotation), while failed
// and canceled outcomes, which re-execution would not reproduce, are
// appended (written and synced).
func (s *Server) journalWrite(rec journal.Record) {
	if s.jr != nil {
		s.jr.Write(rec)
	}
}

func (s *Server) journalAppend(rec journal.Record) {
	if s.jr != nil {
		s.jr.Append(rec)
	}
}

// Start launches the worker pool and returns s.
func (s *Server) Start() *Server {
	for w := 0; w < s.cfg.Workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				jb, ok := s.queue.pop()
				if !ok {
					return
				}
				s.runJob(jb)
			}
		}()
	}
	return s
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops intake (submissions return 503), waits for every queued
// and running job to reach a terminal state, and stops the workers —
// with no deadline: it waits as long as the work takes. Safe to call
// more than once.
func (s *Server) Drain() { s.DrainTimeout(0) }

// DrainTimeout drains like Drain but enforces a hard deadline: if the
// accepted work has not finished within `timeout`, every non-terminal
// job's context is canceled and the cancellation preempts in-flight
// sweeps mid-shot-loop (the jobs end `canceled`, retaining no partial
// results), after which the workers are certain to exit promptly.
// Submissions still committing their accepted record when the drain
// starts are waited for first (a commit is one fsync) and then queued
// like any accepted job; the deadline runs from there. timeout <= 0
// means no deadline.
func (s *Server) DrainTimeout(timeout time.Duration) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	// No commit starts once draining is set (handleSubmit checks it
	// under s.mu), so this wait is bounded.
	s.commits.Wait()
	s.queue.close()
	if timeout <= 0 {
		s.wg.Wait()
		return
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		s.mu.Lock()
		for _, jb := range s.jobs {
			jb.abort() // terminal jobs ignore it
		}
		s.mu.Unlock()
		<-done
	}
}

// apiError is the structured error envelope every non-2xx response
// carries. Code is always one of the taxonomy constants (errors.go) so
// clients branch on a closed set; Reason subdivides it with a stable
// machine-readable slug (e.g. queue_full vs draining, both
// resource_exhausted) when one taxonomy code covers several causes.
type apiError struct {
	Code    string       `json:"code"`
	Reason  string       `json:"reason,omitempty"`
	Message string       `json:"message"`
	Details []FieldError `json:"details,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, e apiError) {
	writeJSON(w, code, struct {
		Error apiError `json:"error"`
	}{Error: e})
}

// SubmitRequest is the POST /v1/jobs body.
type SubmitRequest struct {
	Experiments []ExperimentRequest `json:"experiments"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	// The body bound follows from the documented per-field limits — a
	// full batch of maximal programs fits — plus headroom for JSON
	// escaping and the non-program fields.
	maxBody := int64(s.cfg.MaxBatch)*2*maxProgramBytes + (1 << 20)
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, apiError{
				Code:    CodeInvalidArgument,
				Reason:  "body_too_large",
				Message: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit),
			})
			return
		}
		writeError(w, http.StatusBadRequest, apiError{Code: CodeInvalidArgument, Reason: "malformed_json", Message: err.Error()})
		return
	}
	if len(req.Experiments) == 0 {
		writeError(w, http.StatusBadRequest, apiError{Code: CodeInvalidArgument, Reason: "empty_batch", Message: "a job needs at least one experiment"})
		return
	}
	if len(req.Experiments) > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest, apiError{
			Code:    CodeInvalidArgument,
			Reason:  "batch_too_large",
			Message: fmt.Sprintf("batch has %d experiments, limit is %d", len(req.Experiments), s.cfg.MaxBatch),
		})
		return
	}
	var details []FieldError
	for i, ex := range req.Experiments {
		details = append(details, ex.Validate(i)...)
	}
	if len(details) > 0 {
		writeError(w, http.StatusBadRequest, apiError{
			Code:    CodeInvalidArgument,
			Reason:  "invalid_fields",
			Message: fmt.Sprintf("%d invalid field(s)", len(details)),
			Details: details,
		})
		return
	}

	// Canonical request bytes: the experiments array with its
	// result-neutral fields scrubbed, re-marshaled from the decoded
	// structs — field order and formatting are fixed by the struct, so
	// byte-equal canonical forms mean requests with identical results by
	// construction (see canonicalExperiments). These bytes are what the
	// journal re-executes at recovery and what the idempotency and
	// result-cache hashes cover.
	canonical, err := canonicalExperiments(req.Experiments)
	if err != nil {
		writeError(w, http.StatusBadRequest, apiError{Code: CodeInvalidArgument, Reason: "malformed_json", Message: err.Error()})
		return
	}
	reqHash := hashBytes(canonical)
	idemKey := r.Header.Get("Idempotency-Key")
	tenant, aerr := s.tenants.authenticate(r)
	if aerr != nil {
		writeError(w, http.StatusUnauthorized, *aerr)
		return
	}

	// lockAdmission takes s.mu for the admission decision, first
	// settling an Idempotency-Key that names a retained or committing
	// job. It returns false when it has already answered the request.
	if !s.lockAdmission(w, idemKey, reqHash) {
		return
	}
	// Content-addressed result cache: an unkeyed resubmission of a
	// canonically identical batch is answered terminal-immediately with
	// the original retained job — no machine, no queue slot, no quota
	// charge. The response is byte-identical to cold execution by
	// construction: it references the single result document that exists
	// for this canonical form. Keyed submissions bypass the cache so the
	// idempotency contract (per-key 409 on mismatch, journaled dedup
	// across restarts) keeps its own, stricter path.
	if idemKey == "" && s.cache != nil {
		if id, ok := s.cache.lookup(reqHash); ok {
			if jb := s.jobs[id]; jb != nil {
				s.mu.Unlock()
				w.Header().Set("Cache-Status", "quma-result-cache; hit")
				writeJSON(w, http.StatusOK, struct {
					ID    string `json:"id"`
					Cache string `json:"cache"`
					progressEvent
				}{ID: jb.id, Cache: "hit", progressEvent: jb.snapshot()})
				return
			}
		}
	}
	// Admission control, tenant quota first: a tenant at its bound is
	// told to back off proportionally to its own backlog, and never
	// consumes shared queue capacity.
	if msg, ok := tenant.admit(len(req.Experiments)); !ok {
		retry := s.retryAfterHint(tenant.activeJobs)
		s.mu.Unlock()
		w.Header().Set("Retry-After", retry)
		writeError(w, http.StatusTooManyRequests, apiError{
			Code:    CodeResourceExhausted,
			Reason:  "tenant_quota",
			Message: msg,
		})
		return
	}
	// Queue bound: push below never blocks (fairQueue is unbounded), so
	// this check under s.mu is the whole admission decision. Jobs still
	// committing will be queued, so they count.
	if depth := s.queue.depth() + len(s.committing); depth >= s.cfg.QueueSize {
		retry := s.retryAfterHint(depth)
		s.mu.Unlock()
		w.Header().Set("Retry-After", retry)
		writeError(w, http.StatusTooManyRequests, apiError{
			Code:    CodeResourceExhausted,
			Reason:  "queue_full",
			Message: fmt.Sprintf("job queue is full (%d queued); retry later", s.cfg.QueueSize),
		})
		return
	}
	tenantName := ""
	if tenant.name != AnonymousTenant {
		tenantName = tenant.name
	}
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	var seq uint64
	if s.jr != nil {
		// The accepted record is the durability point. It is written here,
		// under s.mu, so journal order is id order; it is synced below,
		// outside s.mu, and the id is exposed only once it is on disk, so a
		// crash after the response can never lose the job. A failed write
		// rejects the submission — accepting work the journal cannot
		// remember would silently void the crash-safety contract.
		rec := journal.Accepted(id, idemKey, reqHash, canonical)
		rec.Tenant = tenantName
		if seq, err = s.jr.Write(rec); err != nil {
			s.nextID-- // the id was never exposed; reuse it
			s.mu.Unlock()
			writeJournalFailed(w, err)
			return
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	jb := &job{
		id:       id,
		reqs:     req.Experiments,
		total:    len(req.Experiments),
		idemKey:  idemKey,
		reqHash:  reqHash,
		tenant:   tenantName,
		class:    tenant.class,
		tenantSt: tenant,
		ctx:      ctx,
		cancel:   cancel,
		status:   StatusQueued,
		done:     make(chan struct{}),
	}
	tenant.acquire(jb.total)
	jb.events = []numberedEvent{{ID: 1, progressEvent: jb.snapshotLocked()}}
	if idemKey != "" {
		s.idem[idemKey] = jb.id
	}
	if s.jr == nil {
		s.enqueueLocked(jb)
		s.mu.Unlock()
	} else if err := s.commit(jb, seq); err != nil {
		writeJournalFailed(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Total  int    `json:"total"`
	}{ID: jb.id, Status: StatusQueued, Total: jb.total})
}

// lockAdmission locks s.mu for handleSubmit's admission decision and
// resolves the request's Idempotency-Key first: a key naming a
// retained job is answered 200 with that job (409 if the request
// differs), and a key naming a job whose accepted record is still
// committing waits for that commit and then looks again — so it gets
// the same job once committed, or is admitted afresh if the commit
// failed. It returns with s.mu held and true when the request should
// proceed to admission, and with s.mu released and false when it has
// written the response.
func (s *Server) lockAdmission(w http.ResponseWriter, idemKey, reqHash string) bool {
	s.mu.Lock()
	for {
		if s.draining {
			s.mu.Unlock()
			writeError(w, http.StatusServiceUnavailable, apiError{Code: CodeResourceExhausted, Reason: "draining", Message: "server is draining; resubmit elsewhere"})
			return false
		}
		if idemKey == "" {
			return true
		}
		id, ok := s.idem[idemKey]
		if !ok {
			return true
		}
		jb, pending := s.jobs[id], s.committing[id]
		if jb == nil && pending == nil {
			// The job the key pointed at was evicted; treat as new.
			delete(s.idem, idemKey)
			return true
		}
		if jb == nil {
			jb = pending
		}
		if jb.reqHash != reqHash {
			s.mu.Unlock()
			writeError(w, http.StatusConflict, apiError{
				Code:    CodeFailedPrecondition,
				Reason:  "idempotency_key_mismatch",
				Message: fmt.Sprintf("Idempotency-Key %q was already used for a different request", idemKey),
			})
			return false
		}
		if pending != nil {
			s.commitDone.Wait()
			continue
		}
		s.mu.Unlock()
		// Replay: 200 (not 202) with the original job — the client
		// polls the same id whether or not its first submission's
		// response was lost to a crash or a dropped connection.
		writeJSON(w, http.StatusOK, struct {
			ID string `json:"id"`
			progressEvent
		}{ID: jb.id, progressEvent: jb.snapshot()})
		return false
	}
}

// commit makes a journaled submission durable: called with s.mu held
// and jb's accepted record written through seq, it releases s.mu for
// the group-commit fsync, then queues the job. A failed sync removes
// the job and undoes its admission instead; the caller answers 500.
// commit returns with s.mu released.
func (s *Server) commit(jb *job, seq uint64) error {
	s.committing[jb.id] = jb
	s.commits.Add(1)
	defer s.commits.Done()
	s.mu.Unlock()
	err := s.jr.Sync(seq)
	s.mu.Lock()
	delete(s.committing, jb.id)
	s.commitDone.Broadcast()
	if err == nil {
		s.enqueueLocked(jb)
	} else {
		if jb.idemKey != "" && s.idem[jb.idemKey] == jb.id {
			delete(s.idem, jb.idemKey)
		}
		jb.tenantSt.release(jb.total)
	}
	s.mu.Unlock()
	if err != nil {
		jb.cancel()
		// The record may still reach disk; tombstone it so recovery does
		// not run a job whose client was told it failed.
		s.journalWrite(journal.Evicted(jb.id))
	}
	return err
}

// enqueueLocked makes an accepted job visible and queues it; callers
// hold s.mu.
func (s *Server) enqueueLocked(jb *job) {
	s.jobs[jb.id] = jb
	s.queue.push(jb)
}

// writeJournalFailed answers a submission the journal could not record.
func writeJournalFailed(w http.ResponseWriter, err error) {
	writeError(w, http.StatusInternalServerError, apiError{
		Code:    CodeInternal,
		Reason:  "journal_append_failed",
		Message: fmt.Sprintf("could not journal the job: %v", err),
	})
}

// retryAfterHint derives a Retry-After value (whole seconds, the HTTP
// delta-seconds form) from the work ahead: `pending` jobs at the EWMA
// job duration spread over the worker pool, rounded up and clamped to
// [1, 30] so clients always back off at least a second and a cold or
// pathological estimate never tells them to vanish for minutes. Timing
// influences headers only — never result bytes.
func (s *Server) retryAfterHint(pending int) string {
	avg := time.Duration(s.avgJobNanos.Load())
	est := time.Duration(pending) * avg / time.Duration(s.cfg.Workers)
	secs := int64((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return strconv.FormatInt(secs, 10)
}

// observeJobDuration folds one completed job's wall time into the EWMA
// behind retryAfterHint (new = old + (sample-old)/8).
func (s *Server) observeJobDuration(d time.Duration) {
	for {
		old := s.avgJobNanos.Load()
		next := old + (int64(d)-old)/8
		if s.avgJobNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// lookup resolves the {id} path segment.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	jb := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if jb == nil {
		writeError(w, http.StatusNotFound, apiError{Code: CodeNotFound, Message: fmt.Sprintf("no job %q", r.PathValue("id"))})
	}
	return jb
}

// handleCancel implements DELETE /v1/jobs/{id}. Cancellation is
// idempotent and state-aware: a queued job goes terminal immediately
// (the worker skips it at dequeue); a running job has its context
// canceled, which preempts the sweep within a bounded number of shots —
// the worker then records the canceled state; a job already terminal is
// left untouched. Every path responds 200 with the job's current
// status, so repeating a DELETE (or racing one against completion) is
// safe and the response tells the client what actually happened.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	jb := s.lookup(w, r)
	if jb == nil {
		return
	}
	jb.abort()
	// A queued job has no worker to observe the canceled context until
	// dequeue; finish it now so the client sees `canceled` immediately.
	// finish is a no-op if the job is running (the worker owns the
	// transition via the ctx) — except that a running job's sweep is now
	// preempted and the worker will record the same canceled state.
	jb.mu.Lock()
	queued := jb.status == StatusQueued
	jb.mu.Unlock()
	if queued {
		s.finishJob(jb, StatusCanceled, CodeCanceled, "canceled before execution started", nil)
	}
	ev := jb.snapshot()
	writeJSON(w, http.StatusOK, struct {
		ID string `json:"id"`
		progressEvent
	}{ID: jb.id, progressEvent: ev})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	jb := s.lookup(w, r)
	if jb == nil {
		return
	}
	ev := jb.snapshot()
	writeJSON(w, http.StatusOK, struct {
		ID string `json:"id"`
		progressEvent
	}{ID: jb.id, progressEvent: ev})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	jb := s.lookup(w, r)
	if jb == nil {
		return
	}
	jb.mu.Lock()
	status, errCode, errMsg, doc := jb.status, jb.errCode, jb.errMsg, jb.doc
	jb.mu.Unlock()
	switch status {
	case StatusDone:
		// The body deliberately excludes the job id and any timing:
		// identical requests must produce byte-identical result
		// documents (the service determinism contract). The encoder
		// compacts a RawMessage before indenting it, so rendering the
		// compact array gives the same bytes as rendering its elements.
		writeJSON(w, http.StatusOK, struct {
			Results json.RawMessage `json:"results"`
		}{Results: doc})
	case StatusFailed, StatusCanceled:
		// No result body ever leaves a failed or canceled job — the error
		// envelope carries the job's terminal taxonomy code instead.
		writeError(w, http.StatusConflict, apiError{Code: errCode, Reason: "job_" + status, Message: errMsg})
	default:
		writeError(w, http.StatusConflict, apiError{
			Code:    CodeFailedPrecondition,
			Reason:  "not_finished",
			Message: fmt.Sprintf("job is %s; poll status or stream until done", status),
		})
	}
}

// handleStream serves the SSE progress stream (mounted at both /stream
// and /progress). Every event carries a monotonically numbered per-job
// id; a client that reconnects with the standard Last-Event-ID header
// resumes from the event after it — the job's full history is retained
// (it is bounded by the batch size), so a dropped connection never
// loses an event, and in particular never the terminal one. After a
// server restart the history restarts from the recovered state; a
// reconnect carrying a stale (larger) Last-Event-ID skips the replayed
// backlog but is still guaranteed the terminal event, with an id above
// the client's — resumption degrades to "terminal state only", never to
// a hang or a miss.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	jb := s.lookup(w, r)
	if jb == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, apiError{Code: CodeInternal, Reason: "no_streaming", Message: "response writer cannot stream"})
		return
	}
	sent := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			sent = n
		}
	}
	ch := make(chan numberedEvent, 16)
	jb.mu.Lock()
	// Backlog and subscription under one critical section: every event
	// published after this point reaches ch, every one before is in the
	// backlog, and the id-dedupe in send covers the overlap.
	backlog := make([]numberedEvent, 0, len(jb.events))
	for _, ne := range jb.events {
		if ne.ID > sent {
			backlog = append(backlog, ne)
		}
	}
	jb.subs = append(jb.subs, ch)
	jb.mu.Unlock()
	defer func() {
		// DeleteFunc clears the vacated slot, so a retained job does not
		// keep the channel's buffer alive.
		jb.mu.Lock()
		jb.subs = slices.DeleteFunc(jb.subs, func(c chan numberedEvent) bool { return c == ch })
		jb.mu.Unlock()
	}()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	send := func(ne numberedEvent) bool {
		if ne.ID <= sent {
			return false
		}
		sent = ne.ID
		data, _ := json.Marshal(ne.progressEvent)
		fmt.Fprintf(w, "id: %d\nevent: progress\ndata: %s\n\n", ne.ID, data)
		fl.Flush()
		return terminal(ne.Status)
	}
	for _, ne := range backlog {
		if send(ne) {
			return
		}
	}
	for {
		select {
		case ne := <-ch:
			if send(ne) {
				return
			}
		case <-jb.done:
			// The terminal state is set (finish closes done after setting
			// it) but its published event may still be in flight or may
			// have been dropped from a full channel: drain what is
			// buffered, then emit a terminal snapshot under the next id.
			for {
				select {
				case ne := <-ch:
					if send(ne) {
						return
					}
				default:
					jb.mu.Lock()
					ne := numberedEvent{ID: len(jb.events), progressEvent: jb.snapshotLocked()}
					jb.mu.Unlock()
					if ne.ID <= sent {
						ne.ID = sent + 1
					}
					send(ne)
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

// healthJournal is the /healthz durability block, present only when the
// server runs with a journal.
type healthJournal struct {
	// RecoveredJobs is how many jobs the startup replay restored
	// (terminal and re-enqueued combined); Reenqueued of them were
	// non-terminal and re-executed.
	RecoveredJobs int `json:"recovered_jobs"`
	Reenqueued    int `json:"reenqueued"`
	// TruncatedBytes/DroppedSegments report the torn-tail repair, if any.
	TruncatedBytes  int64 `json:"truncated_bytes"`
	DroppedSegments int   `json:"dropped_segments"`
	// Appends/Fsyncs count records written and fsyncs issued since
	// startup; their ratio is the group commit's records per fsync.
	Appends uint64 `json:"appends"`
	Fsyncs  uint64 `json:"fsyncs"`
}

// healthQueue is the /healthz fair-queue block: total depth plus the
// per-class lane depths.
type healthQueue struct {
	Interactive int `json:"interactive"`
	Batch       int `json:"batch"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	njobs := len(s.jobs)
	var hc *cacheStats
	if s.cache != nil {
		hc = s.cache.stats()
	}
	var hj *healthJournal
	if s.jr != nil {
		st, n := s.jr.Stats(), s.jr.Counters()
		hj = &healthJournal{
			RecoveredJobs:   s.recovered,
			Reenqueued:      s.reenqueued,
			TruncatedBytes:  st.TruncatedBytes,
			DroppedSegments: st.DroppedSegments,
			Appends:         n.Appends,
			Fsyncs:          n.Fsyncs,
		}
	}
	s.mu.Unlock()
	qi, qb := s.queue.depthByClass()
	writeJSON(w, http.StatusOK, struct {
		OK       bool           `json:"ok"`
		Draining bool           `json:"draining"`
		Queued   int            `json:"queued"`
		Classes  healthQueue    `json:"classes"`
		Jobs     int            `json:"jobs"`
		Cache    *cacheStats    `json:"cache,omitempty"`
		Journal  *healthJournal `json:"journal,omitempty"`
	}{OK: true, Draining: draining, Queued: qi + qb, Classes: healthQueue{Interactive: qi, Batch: qb}, Jobs: njobs, Cache: hc, Journal: hj})
}

// runJob executes one dequeued job to a terminal state. The execution
// context layers the job deadline (Config.JobTimeout, measured from
// dequeue) on the job's cancellation root, so one ctx carries both
// DELETE/drain cancellation and the timeout down through the expt layer
// into the replay shot loop — either preempts a sweep within a bounded
// number of shots. Terminal classification rides the error: a wrapped
// context.Canceled ends the job `canceled`, context.DeadlineExceeded
// ends it failed with code `deadline_exceeded`, anything else — fit
// errors, injected faults, recovered worker panics — failed with code
// `internal`.
func (s *Server) runJob(jb *job) {
	jb.mu.Lock()
	if terminal(jb.status) {
		// A DELETE finished the job while it was queued.
		jb.mu.Unlock()
		return
	}
	root := jb.ctx
	if root.Err() != nil {
		// A job canceled while still queued never starts. (handleCancel
		// usually records this itself; this path wins the race where
		// cancel and dequeue interleave, and it is how the drain deadline
		// ends queued jobs.)
		jb.mu.Unlock()
		s.finishJob(jb, StatusCanceled, CodeCanceled, "canceled before execution started", nil)
		return
	}
	jb.status = StatusRunning
	reqs := jb.reqs
	jb.mu.Unlock()
	ctx, cancel := context.WithTimeout(root, s.cfg.JobTimeout)
	defer cancel()
	jb.publish()
	s.journalWrite(journal.Running(jb.id))

	start := time.Now()
	results := make([]json.RawMessage, len(reqs))
	for i, req := range reqs {
		res, err := Execute(ctx, s.env, req)
		if err != nil {
			code := classifyErr(err)
			status := StatusFailed
			if code == CodeCanceled {
				status = StatusCanceled
			}
			s.finishJob(jb, status, code, jobErrorMessage(i, req.Type, err), nil)
			return
		}
		jb.mu.Lock()
		if terminal(jb.status) {
			// A DELETE landed after the experiment's last context check;
			// the job is already canceled and retains no results — this
			// one is dropped too, honoring the no-partial-results contract.
			jb.mu.Unlock()
			return
		}
		results[i] = res
		jb.completed = i + 1
		jb.mu.Unlock()
		jb.publish()
	}
	doc, err := json.Marshal(results)
	if err != nil {
		s.finishJob(jb, StatusFailed, CodeInternal, fmt.Sprintf("encoding results: %v", err), nil)
		return
	}
	s.finishJob(jb, StatusDone, "", "", doc)
	// Completed executions feed the Retry-After estimator; aborted ones
	// would bias it toward zero.
	s.observeJobDuration(time.Since(start))
}

// finishJob is the single terminal-transition point: move the job to a
// terminal state (exactly once), retire it into the retention window,
// and journal the transition. doc is a done job's
// result document.
//
// The transition and the retire share one s.mu critical section, so a
// client that observes the terminal state finds the retire done on its
// next request: quota released, result cached, older jobs evicted. The
// journal record is best-effort and lands after the in-memory
// transition — if the process dies in between, recovery re-executes the
// job and determinism reproduces the identical bytes. The done record
// shares doc's bytes, so the result is held once.
func (s *Server) finishJob(jb *job, status, code, msg string, doc json.RawMessage) {
	s.mu.Lock()
	won := jb.finish(status, code, msg, doc)
	if won {
		s.retireLocked(jb, status == StatusDone)
	}
	s.mu.Unlock()
	if !won {
		return
	}
	if s.jr != nil {
		switch status {
		case StatusDone:
			s.journalWrite(journal.Done(jb.id, hashBytes(doc), doc))
		case StatusCanceled:
			s.journalAppend(journal.Canceled(jb.id, code, msg))
		default:
			s.journalAppend(journal.Failed(jb.id, code, msg))
		}
	}
}

// retireLocked records a terminal job and evicts the oldest finished
// jobs beyond the retention bound, so a long-lived server's result store
// stays finite. Evictions are journaled (tombstones compacted away at
// the next rotation), so the bound holds across restarts too. Retire is
// also where the job's admission charge is settled: the tenant quota is
// released exactly once, and a completed job is indexed into the
// content-addressed cache (a failed or canceled one is not — only done
// jobs carry the canonical result document). Callers hold s.mu.
func (s *Server) retireLocked(jb *job, done bool) {
	if jb.tenantSt != nil {
		jb.tenantSt.release(jb.total)
		jb.tenantSt = nil
	}
	if done && s.cache != nil && jb.reqHash != "" {
		s.cache.insert(jb.reqHash, jb.id)
	}
	s.retired = append(s.retired, jb.id)
	s.trimRetiredLocked()
}

// trimRetiredLocked evicts beyond the retention bound; callers hold
// s.mu (or, during recovery, exclusive access). Eviction invalidates
// the job's cache entry in the same critical section — the cache is an
// index over the retention window and must never point at a 404.
func (s *Server) trimRetiredLocked() {
	for len(s.retired) > s.cfg.MaxRetainedJobs {
		id := s.retired[0]
		s.retired = s.retired[1:]
		if jb := s.jobs[id]; jb != nil {
			if jb.idemKey != "" && s.idem[jb.idemKey] == id {
				delete(s.idem, jb.idemKey)
			}
			if s.cache != nil && jb.reqHash != "" {
				s.cache.invalidate(jb.reqHash, id)
			}
		}
		delete(s.jobs, id)
		s.journalWrite(journal.Evicted(id))
	}
}
