package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"quma/internal/expt"
	"quma/internal/journal"
)

// fsyncGate is a journal Fsync hook that counts group-commit fsyncs.
// While hold is set an fsync signals entered and blocks until release
// is closed, which widens the commit window deterministically where a
// slow fsync would only make it likely; while fail is set it fails.
type fsyncGate struct {
	count   atomic.Int64
	hold    atomic.Bool
	fail    atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newFsyncGate() *fsyncGate {
	return &fsyncGate{entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (g *fsyncGate) fsync() error {
	g.count.Add(1)
	if g.hold.Load() {
		g.entered <- struct{}{}
		<-g.release
	}
	if g.fail.Load() {
		return errors.New("injected: fsync failed")
	}
	return nil
}

// openGatedJournal opens a journal in a fresh directory with g's hook.
func openGatedJournal(t *testing.T, g *fsyncGate) (*journal.Journal, string) {
	t.Helper()
	dir := t.TempDir()
	jr, err := journal.Open(journal.Options{Dir: dir, Faults: &journal.Faults{Fsync: g.fsync}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jr.Close() })
	return jr, dir
}

type submitOutcome struct {
	id   string
	code int
	err  error
}

// submitAsync posts a batch in the background. It reports failures in
// the outcome, since only the test goroutine may call t.Fatal.
func submitAsync(base string, req SubmitRequest, key string) <-chan submitOutcome {
	out := make(chan submitOutcome, 1)
	go func() {
		var o submitOutcome
		defer func() { out <- o }()
		body, err := json.Marshal(req)
		if err != nil {
			o.err = err
			return
		}
		hreq, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			o.err = err
			return
		}
		if key != "" {
			hreq.Header.Set("Idempotency-Key", key)
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			o.err = err
			return
		}
		defer resp.Body.Close()
		o.code = resp.StatusCode
		var acc struct {
			ID string `json:"id"`
		}
		o.err = json.NewDecoder(resp.Body).Decode(&acc)
		o.id = acc.ID
	}()
	return out
}

// assertPending fails if ch delivers within a short window.
func assertPending[T any](t *testing.T, ch <-chan T, what string) {
	t.Helper()
	select {
	case v := <-ch:
		t.Fatalf("%s returned during the commit: %+v", what, v)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestJournalCommitOneFsyncPerFreshJob pins the fsync rule: a fresh job
// on a journaled server costs exactly one fsync — its accepted record —
// while its running and done records are only written; a cache hit
// costs no journal work at all. /healthz reports the same counts.
func TestJournalCommitOneFsyncPerFreshJob(t *testing.T) {
	g := newFsyncGate()
	jr, _ := openGatedJournal(t, g)
	s := New(Config{Workers: 1, Journal: jr}).Start()
	base := httpTestServer(t, s)

	id, code := submitKeyed(t, base, quickAsm(3), "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitStatus(t, base, id, time.Minute, StatusDone)
	if hit, code := submitKeyed(t, base, quickAsm(3), ""); hit != id || code != http.StatusOK {
		t.Fatalf("resubmit: id %q status %d, want cache hit on %s", hit, code, id)
	}
	s.Drain() // the done record is written once the worker exits
	if n := g.count.Load(); n != 1 {
		t.Fatalf("one fresh job issued %d fsyncs, want 1", n)
	}
	if h := healthz(t, base); h.Appends != 3 || h.Fsyncs != 1 {
		t.Fatalf("healthz journal %+v, want 3 appends (accepted, running, done) and 1 fsync", h)
	}
}

// TestJournalCommitKeyedResubmitWaits: a keyed resubmission that
// arrives while the first submission's accepted record is still being
// synced waits for that commit and is answered 200 with the same job.
func TestJournalCommitKeyedResubmitWaits(t *testing.T) {
	g := newFsyncGate()
	jr, _ := openGatedJournal(t, g)
	s := New(Config{Workers: 1, Journal: jr}).Start()
	base := httpTestServer(t, s)
	defer s.Drain()

	g.hold.Store(true)
	first := submitAsync(base, quickAsm(4), "commit-key")
	<-g.entered
	second := submitAsync(base, quickAsm(4), "commit-key")
	assertPending(t, first, "first submission")
	assertPending(t, second, "keyed resubmission")
	// A different request under the same key conflicts without waiting.
	if _, code := submitKeyed(t, base, quickAsm(5), "commit-key"); code != http.StatusConflict {
		t.Fatalf("mismatched key during commit: status %d, want 409", code)
	}
	g.hold.Store(false)
	close(g.release)
	a, b := <-first, <-second
	if a.code != http.StatusAccepted || b.code != http.StatusOK || a.id == "" || a.id != b.id {
		t.Fatalf("first %+v, resubmission %+v; want 202 then 200 with the same id", a, b)
	}
	waitStatus(t, base, a.id, time.Minute, StatusDone)
}

// TestJournalCommitCountsAgainstQueueSize: a submission still syncing
// its accepted record holds a queue slot.
func TestJournalCommitCountsAgainstQueueSize(t *testing.T) {
	g := newFsyncGate()
	jr, _ := openGatedJournal(t, g)
	s := New(Config{QueueSize: 1, Journal: jr}) // not started: accepted jobs stay queued
	base := httpTestServer(t, s)

	g.hold.Store(true)
	first := submitAsync(base, quickAsm(6), "")
	<-g.entered
	if _, code := submitKeyed(t, base, quickAsm(7), ""); code != http.StatusTooManyRequests {
		t.Fatalf("submit during a commit with QueueSize 1: status %d, want 429", code)
	}
	g.hold.Store(false)
	close(g.release)
	if a := <-first; a.code != http.StatusAccepted {
		t.Fatalf("committing submission: %+v, want 202", a)
	}
	s.Start().Drain()
}

// TestJournalCommitDrainFinishesJob: a DrainTimeout started while a
// submission is syncing its accepted record waits for the commit, and
// the job it then queues runs to done.
func TestJournalCommitDrainFinishesJob(t *testing.T) {
	g := newFsyncGate()
	jr, _ := openGatedJournal(t, g)
	s := New(Config{Workers: 1, Journal: jr}).Start()
	base := httpTestServer(t, s)

	g.hold.Store(true)
	sub := submitAsync(base, quickAsm(8), "")
	<-g.entered
	drained := make(chan struct{})
	go func() {
		s.DrainTimeout(time.Minute)
		close(drained)
	}()
	assertPending(t, drained, "DrainTimeout")
	g.hold.Store(false)
	close(g.release)
	a := <-sub
	if a.code != http.StatusAccepted {
		t.Fatalf("submission committing across the drain: %+v, want 202", a)
	}
	<-drained
	if st := waitStatus(t, base, a.id, time.Second, StatusDone); st != StatusDone {
		t.Fatalf("job committed during drain ended %s", st)
	}
}

// TestJournalCommitFailureForgetsJob: a failed sync of the accepted
// record answers 500 journal_append_failed, leaves no job behind (a
// keyed retry is admitted afresh under a new id), and tombstones the
// record so a restart does not resurrect it.
func TestJournalCommitFailureForgetsJob(t *testing.T) {
	g := newFsyncGate()
	jr, dir := openGatedJournal(t, g)
	s := New(Config{Workers: 1, Journal: jr}).Start()
	base := httpTestServer(t, s)

	g.fail.Store(true)
	body, _ := json.Marshal(quickAsm(9))
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Idempotency-Key", "fails-once")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var e struct {
		Error apiError `json:"error"`
	}
	if err := json.Unmarshal(b, &e); err != nil || resp.StatusCode != http.StatusInternalServerError ||
		e.Error.Code != CodeInternal || e.Error.Reason != "journal_append_failed" {
		t.Fatalf("failed commit: status %d body %s, want 500 internal/journal_append_failed", resp.StatusCode, b)
	}
	g.fail.Store(false)
	id, code := submitKeyed(t, base, quickAsm(9), "fails-once")
	if code != http.StatusAccepted {
		t.Fatalf("keyed retry after a failed commit: status %d, want 202", code)
	}
	waitStatus(t, base, id, time.Minute, StatusDone)
	s.Drain()
	jr.Close()

	jr2, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()
	if sts := jr2.States(); len(sts) != 1 || sts[0].ID != id {
		t.Fatalf("journal replays %d jobs (%+v), want only the retried %s", len(sts), sts, id)
	}
}

// TestJournalRecoveredDoneJobReportsTotal: a job restored terminal from
// the journal reports its batch size, not 0.
func TestJournalRecoveredDoneJobReportsTotal(t *testing.T) {
	dir := t.TempDir()
	jr, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Journal: jr}).Start()
	base := httpTestServer(t, s)
	req := quickAsm(10)
	req.Experiments = append(req.Experiments, quickAsm(11).Experiments...)
	id, code := submitKeyed(t, base, req, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitStatus(t, base, id, time.Minute, StatusDone)
	before := fetchResult(t, base, id)
	s.Drain()
	jr.Close()

	jr2, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()
	s2 := New(Config{Workers: 1, Journal: jr2}).Start()
	defer s2.Drain()
	base2 := httpTestServer(t, s2)
	resp, err := http.Get(base2 + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var ev progressEvent
	err = json.NewDecoder(resp.Body).Decode(&ev)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Status != StatusDone || ev.Total != 2 || ev.Completed != 2 {
		t.Fatalf("recovered job reports %+v, want done 2/2", ev)
	}
	if after := fetchResult(t, base2, id); !bytes.Equal(after, before) {
		t.Fatalf("recovered result differs:\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestJournalRecoversFailedAndCanceledJobs: a failed job and a job
// canceled mid-sweep each append a synced terminal record, and a server
// restarted on the journal restores both with the same status, code and
// message without executing either again.
func TestJournalRecoversFailedAndCanceledJobs(t *testing.T) {
	var failGets, slowShots atomic.Bool
	faults := &expt.FaultHooks{
		PoolGet: func() error {
			if failGets.Load() {
				return errors.New("injected: pool get failed")
			}
			return nil
		},
		Shot: func(int) {
			if slowShots.Load() {
				time.Sleep(time.Millisecond)
			}
		},
	}
	dir := t.TempDir()
	jr, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Journal: jr, Faults: faults}).Start()
	base := httpTestServer(t, s)
	// waitSynced polls until the journal has fsync'd twice since from:
	// the accepted record, then the terminal one, which lands just after
	// the in-memory transition and cannot share the accepted record's
	// fsync.
	waitSynced := func(from uint64, what string) {
		t.Helper()
		for end := time.Now().Add(10 * time.Second); jr.Counters().Fsyncs < from+2; {
			if time.Now().After(end) {
				t.Fatalf("the %s record was never synced (fsyncs %d)", what, jr.Counters().Fsyncs)
			}
			time.Sleep(time.Millisecond)
		}
	}

	failGets.Store(true)
	synced := jr.Counters().Fsyncs
	failed, code := submitKeyed(t, base, quickAsm(21), "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitStatus(t, base, failed, time.Minute, StatusFailed)
	waitSynced(synced, "failed")
	failGets.Store(false)

	slowShots.Store(true)
	synced = jr.Counters().Fsyncs
	canceled, code := submitKeyed(t, base, slowT1(), "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitStatus(t, base, canceled, time.Minute, StatusRunning)
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+canceled, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitStatus(t, base, canceled, time.Minute, StatusCanceled)
	waitSynced(synced, "canceled")
	slowShots.Store(false)

	status := func(base, id string) progressEvent {
		t.Helper()
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ev progressEvent
		if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
			t.Fatal(err)
		}
		return ev
	}
	before := map[string]progressEvent{failed: status(base, failed), canceled: status(base, canceled)}
	if before[failed].Status != StatusFailed || before[canceled].Status != StatusCanceled {
		t.Fatalf("jobs ended %+v, want one failed and one canceled", before)
	}
	s.Drain()
	jr.Close()

	jr2, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()
	var gets atomic.Int64
	s2 := New(Config{Workers: 1, Journal: jr2, Faults: &expt.FaultHooks{PoolGet: func() error {
		gets.Add(1)
		return nil
	}}}).Start()
	base2 := httpTestServer(t, s2)
	for id, want := range before {
		got := status(base2, id)
		if got.Status != want.Status || got.Code != want.Code || got.Error != want.Error {
			t.Errorf("job %s recovered as %+v, want %+v", id, got, want)
		}
	}
	s2.Drain()
	if n := gets.Load(); n != 0 {
		t.Fatalf("recovered terminal jobs re-executed (%d pool gets)", n)
	}
}
