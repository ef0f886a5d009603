package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func open(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	opts.Dir = dir
	j, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func appendAll(t *testing.T, j *Journal, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	req := json.RawMessage(`[{"type":"t1","seed":5}]`)
	res := json.RawMessage(`[{"type":"t1","schema":2,"result":{}}]`)

	j := open(t, dir, Options{})
	appendAll(t, j,
		Accepted("job-1", "key-a", "hash-1", req),
		Running("job-1"),
		Done("job-1", "rhash-1", res),
		Accepted("job-2", "", "hash-2", req),
		Running("job-2"),
		Accepted("job-3", "", "hash-3", req),
	)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := open(t, dir, Options{})
	sts := j2.States()
	if len(sts) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(sts))
	}
	// Submission order preserved.
	for i, want := range []string{"job-1", "job-2", "job-3"} {
		if sts[i].ID != want {
			t.Fatalf("state %d is %s, want %s", i, sts[i].ID, want)
		}
	}
	if !sts[0].Terminal() || sts[0].Status != TypeDone || sts[0].Key != "key-a" ||
		sts[0].ResultHash != "rhash-1" || !bytes.Equal(sts[0].Results, res) {
		t.Fatalf("job-1 state %+v not restored", sts[0])
	}
	if sts[1].Terminal() || sts[1].Status != TypeRunning || !bytes.Equal(sts[1].Request, req) {
		t.Fatalf("job-2 state %+v, want non-terminal running with request", sts[1])
	}
	if sts[2].Status != TypeAccepted {
		t.Fatalf("job-3 status %s, want accepted", sts[2].Status)
	}
	if st := j2.Stats(); st.Records != 6 || st.TruncatedBytes != 0 || st.Jobs != 3 {
		t.Fatalf("clean reopen stats %+v", st)
	}
}

// TestTornTailTruncates covers the crash contract: a record cut mid-way
// (any prefix length, including a cut inside the frame header) must be
// truncated away at reopen — never a startup failure — and every record
// before it must survive.
func TestTornTailTruncates(t *testing.T) {
	for _, cut := range []string{"header", "payload"} {
		t.Run(cut, func(t *testing.T) {
			dir := t.TempDir()
			j := open(t, dir, Options{})
			appendAll(t, j,
				Accepted("job-1", "", "h1", json.RawMessage(`[]`)),
				Running("job-1"),
			)
			j.Close()

			seg := segmentPath(dir, firstSegmentIndex)
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			whole := len(data)
			// Append a record, then tear it: keep only a few bytes of it.
			j = open(t, dir, Options{})
			appendAll(t, j, Done("job-1", "rh", json.RawMessage(`[]`)))
			j.Close()
			data, err = os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			keep := whole + 4 // cut inside the new frame's header
			if cut == "payload" {
				keep = whole + frameHeader + 3
			}
			if err := os.WriteFile(seg, data[:keep], 0o644); err != nil {
				t.Fatal(err)
			}

			j2 := open(t, dir, Options{})
			sts := j2.States()
			if len(sts) != 1 || sts[0].Terminal() || sts[0].Status != TypeRunning {
				t.Fatalf("after torn tail, states %+v; want job-1 back to running", sts)
			}
			st := j2.Stats()
			if st.TruncatedBytes != int64(keep-whole) {
				t.Fatalf("TruncatedBytes %d, want %d", st.TruncatedBytes, keep-whole)
			}
			// The file itself was repaired, so a third open is clean.
			j2.Close()
			j3 := open(t, dir, Options{})
			if st := j3.Stats(); st.TruncatedBytes != 0 {
				t.Fatalf("repair did not stick: %+v", st)
			}
			// And the repaired journal accepts appends again.
			appendAll(t, j3, Done("job-1", "rh", json.RawMessage(`[]`)))
			j3.Close()
			j4 := open(t, dir, Options{})
			if sts := j4.States(); len(sts) != 1 || sts[0].Status != TypeDone {
				t.Fatalf("append after repair lost: %+v", sts)
			}
		})
	}
}

// TestCorruptRecordDropsSuffix flips a byte mid-file: replay keeps the
// prefix, truncates from the corrupt record, and still opens.
func TestCorruptRecordDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	j := open(t, dir, Options{})
	appendAll(t, j,
		Accepted("job-1", "", "h1", json.RawMessage(`[]`)),
		Accepted("job-2", "", "h2", json.RawMessage(`[]`)),
	)
	j.Close()
	seg := segmentPath(dir, firstSegmentIndex)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Find the second frame and corrupt one payload byte.
	_, n, ok := parseFrame(data)
	if !ok {
		t.Fatal("first frame unparseable")
	}
	data[n+frameHeader+2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j2 := open(t, dir, Options{})
	sts := j2.States()
	if len(sts) != 1 || sts[0].ID != "job-1" {
		t.Fatalf("after corruption, states %+v; want only job-1", sts)
	}
	if st := j2.Stats(); st.TruncatedBytes == 0 {
		t.Fatalf("corruption not reported: %+v", st)
	}
}

// TestRotationCompactsAndBoundsSize drives enough records through a
// tiny segment bound to force several rotations, evicting as it goes:
// the directory must end with exactly one live segment whose replayed
// state contains only the non-evicted jobs, in order.
func TestRotationCompactsAndBoundsSize(t *testing.T) {
	dir := t.TempDir()
	j := open(t, dir, Options{MaxSegmentBytes: 2048, DisableFsync: true})
	res := json.RawMessage(`[{"result":"payload-payload-payload"}]`)
	const jobs = 50
	for i := 1; i <= jobs; i++ {
		id := fmt.Sprintf("job-%d", i)
		appendAll(t, j,
			Accepted(id, "", fmt.Sprintf("h%d", i), json.RawMessage(`[{"type":"t1"}]`)),
			Running(id),
			Done(id, "rh", res),
		)
		if i > 3 {
			// Retention bound of 3: evict the oldest.
			appendAll(t, j, Evicted(fmt.Sprintf("job-%d", i-3)))
		}
	}
	j.Close()

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("found %d segments after compaction, want 1: %v", len(segs), segs)
	}
	fi, err := os.Stat(segmentPath(dir, segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 4096 {
		t.Fatalf("live segment is %d bytes; compaction is not bounding the journal", fi.Size())
	}
	j2 := open(t, dir, Options{})
	sts := j2.States()
	if len(sts) != 3 {
		t.Fatalf("replayed %d jobs, want the 3 retained", len(sts))
	}
	for i, want := range []string{"job-48", "job-49", "job-50"} {
		if sts[i].ID != want || sts[i].Status != TypeDone {
			t.Fatalf("state %d is %s/%s, want %s/done", i, sts[i].ID, sts[i].Status, want)
		}
	}
}

// TestCompactionSurvivesCrashBeforeCleanup simulates a crash between
// writing the compacted segment and deleting the old ones: replay must
// tolerate the duplicated records (old segment then compacted segment).
func TestCompactionSurvivesCrashBeforeCleanup(t *testing.T) {
	dir := t.TempDir()
	j := open(t, dir, Options{DisableFsync: true})
	appendAll(t, j,
		Accepted("job-1", "k", "h1", json.RawMessage(`[1]`)),
		Done("job-1", "rh1", json.RawMessage(`[2]`)),
	)
	j.Close()
	// Hand-write the "compacted" second segment the rotation would have
	// produced, leaving the first in place (the crash window).
	j = open(t, dir, Options{DisableFsync: true})
	sts := j.States()
	j.Close()
	f, err := os.Create(segmentPath(dir, firstSegmentIndex+1))
	if err != nil {
		t.Fatal(err)
	}
	seq := uint64(100)
	for _, st := range sts {
		for _, rec := range st.records() {
			rec.Seq = seq
			seq++
			frame, err := encodeFrame(rec)
			if err != nil {
				t.Fatal(err)
			}
			f.Write(frame)
		}
	}
	f.Close()

	j2 := open(t, dir, Options{})
	got := j2.States()
	if len(got) != 1 || got[0].ID != "job-1" || got[0].Status != TypeDone ||
		got[0].Key != "k" || !bytes.Equal(got[0].Results, json.RawMessage(`[2]`)) {
		t.Fatalf("duplicated replay state %+v", got)
	}
}

func TestFaultHooks(t *testing.T) {
	t.Run("append failure surfaces and later appends succeed", func(t *testing.T) {
		dir := t.TempDir()
		boom := errors.New("disk on fire")
		calls := 0
		j := open(t, dir, Options{Faults: &Faults{Append: func() error {
			calls++
			if calls == 1 {
				return boom
			}
			return nil
		}}})
		if err := j.Append(Accepted("job-1", "", "h", nil)); !errors.Is(err, boom) {
			t.Fatalf("err %v, want wrapped injected failure", err)
		}
		appendAll(t, j, Accepted("job-2", "", "h", nil))
		if sts := j.States(); len(sts) != 1 || sts[0].ID != "job-2" {
			t.Fatalf("states %+v, want only job-2", sts)
		}
	})
	t.Run("torn write wedges and truncates at reopen", func(t *testing.T) {
		dir := t.TempDir()
		torn := 0
		j := open(t, dir, Options{Faults: &Faults{Torn: func(frame []byte) []byte {
			torn++
			if torn == 2 {
				return frame[:len(frame)/2]
			}
			return nil
		}}})
		appendAll(t, j,
			Accepted("job-1", "", "h", nil),
			Running("job-1"),         // torn
			Done("job-1", "rh", nil), // wedged no-op
		)
		j.Close()
		j2 := open(t, dir, Options{})
		sts := j2.States()
		if len(sts) != 1 || sts[0].Status != TypeAccepted {
			t.Fatalf("states %+v, want job-1 accepted only (running torn, done wedged)", sts)
		}
		if st := j2.Stats(); st.TruncatedBytes == 0 {
			t.Fatalf("torn write not truncated: %+v", st)
		}
	})
	t.Run("slow fsync delays but does not fail", func(t *testing.T) {
		dir := t.TempDir()
		var slept int
		j := open(t, dir, Options{Faults: &Faults{Fsync: func() error {
			slept++
			time.Sleep(time.Millisecond)
			return nil
		}}})
		appendAll(t, j, Accepted("job-1", "", "h", nil))
		if slept == 0 {
			t.Fatal("fsync hook never ran")
		}
	})
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open accepted empty Dir")
	}
	// A nested, not-yet-existing dir is created.
	dir := filepath.Join(t.TempDir(), "a", "b")
	j := open(t, dir, Options{})
	appendAll(t, j, Accepted("job-1", "", "h", nil))
}

// TestGroupCommitSharesFsyncs: concurrent Write+Sync callers share
// fsyncs — a slow fsync lets the others queue behind it and one
// follow-up fsync covers them all — and every record still replays.
func TestGroupCommitSharesFsyncs(t *testing.T) {
	dir := t.TempDir()
	var hooked atomic.Int64
	j := open(t, dir, Options{Faults: &Faults{Fsync: func() error {
		hooked.Add(1)
		time.Sleep(5 * time.Millisecond)
		return nil
	}}})
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seq, err := j.Write(Accepted(fmt.Sprintf("job-%d", i), "", "h", json.RawMessage(`[1]`)))
			if err == nil {
				err = j.Sync(seq)
			}
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	c := j.Counters()
	if c.Appends != n || c.Fsyncs != uint64(hooked.Load()) {
		t.Fatalf("counters %+v, hook ran %d times; want %d appends and one fsync per hook call", c, hooked.Load(), n)
	}
	if c.Fsyncs >= n {
		t.Fatalf("%d callers issued %d fsyncs; group commit shared none", n, c.Fsyncs)
	}
	j.Close()
	if sts := open(t, dir, Options{}).States(); len(sts) != n {
		t.Fatalf("replayed %d jobs, want %d", len(sts), n)
	}
}

// TestSyncAfterRotationNeedsNoFsync: a rotation syncs the compacted
// segment, which covers every record written before it.
func TestSyncAfterRotationNeedsNoFsync(t *testing.T) {
	var hooked atomic.Int64
	j := open(t, t.TempDir(), Options{MaxSegmentBytes: 1024, Faults: &Faults{Fsync: func() error {
		hooked.Add(1)
		return nil
	}}})
	var seq uint64
	for i := 1; j.segIdx == firstSegmentIndex; i++ {
		var err error
		if seq, err = j.Write(Accepted(fmt.Sprintf("job-%d", i), "", "h", json.RawMessage(`[1]`))); err != nil {
			t.Fatal(err)
		}
	}
	before := j.Counters()
	if err := j.Sync(seq); err != nil {
		t.Fatal(err)
	}
	if after := j.Counters(); after.Fsyncs != before.Fsyncs || hooked.Load() != 0 {
		t.Fatalf("Sync after rotation issued an fsync: counters %+v -> %+v, hook ran %d times", before, after, hooked.Load())
	}
}

// TestRotationIsAmortizedPastTheBound: once the live state outgrows
// MaxSegmentBytes, rotation must not rewrite it on every write. The
// threshold doubles with the compacted size, so N writes cost O(log N)
// rotations, and reopening recovers every job.
func TestRotationIsAmortizedPastTheBound(t *testing.T) {
	dir := t.TempDir()
	j := open(t, dir, Options{MaxSegmentBytes: 1024, DisableFsync: true})
	const n = 2000
	for i := 1; i <= n; i++ {
		appendAll(t, j, Accepted(fmt.Sprintf("job-%d", i), "", "h", json.RawMessage(`[{"type":"t1"}]`)))
	}
	// The live state passes the bound after about ten records; log2 of
	// the rest, plus slack, bounds an amortized schedule. Each rotation
	// moves to the next segment index.
	if r := j.segIdx - firstSegmentIndex; r == 0 || r > 2*11 {
		t.Fatalf("%d writes past the bound caused %d rotations, want O(log N)", n, r)
	}
	j.Close()
	sts := open(t, dir, Options{}).States()
	if len(sts) != n {
		t.Fatalf("replayed %d jobs, want %d", len(sts), n)
	}
	for i, st := range sts {
		if want := fmt.Sprintf("job-%d", i+1); st.ID != want {
			t.Fatalf("state %d is %s, want %s", i, st.ID, want)
		}
	}
}

// TestSyncFailureSurfaces: an fsync error fails the Sync that issued it
// (and is not mistaken for a commit); the next Sync retries and
// succeeds. A closed journal rejects Write and Sync.
func TestSyncFailureSurfaces(t *testing.T) {
	boom := errors.New("disk on fire")
	var calls atomic.Int64
	j := open(t, t.TempDir(), Options{Faults: &Faults{Fsync: func() error {
		if calls.Add(1) == 1 {
			return boom
		}
		return nil
	}}})
	seq, err := j.Write(Accepted("job-1", "", "h", nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(seq); !errors.Is(err, boom) {
		t.Fatalf("Sync err %v, want the injected failure", err)
	}
	if c := j.Counters(); c.Fsyncs != 0 {
		t.Fatalf("failed fsync counted: %+v", c)
	}
	if err := j.Sync(seq); err != nil {
		t.Fatalf("retry: %v", err)
	}
	j.Close()
	if _, err := j.Write(Running("job-1")); err == nil {
		t.Fatal("Write on a closed journal succeeded")
	}
	if err := j.Sync(seq + 1); err == nil {
		t.Fatal("Sync of an unwritten record on a closed journal succeeded")
	}
}
