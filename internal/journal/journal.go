// Package journal is the crash-safe durable job log of the quma batch
// service: an append-only, checksummed write-ahead log of accepted jobs
// and their state transitions. One record is written per transition —
// accepted (carrying the canonicalized request JSON, its hash, and an
// optional idempotency key), running, and exactly one terminal record
// (done with the result bytes and their hash, or failed/canceled with
// the taxonomy code) — so that after an unclean process death the
// service can replay the log, restore every terminal job byte-for-byte,
// and re-enqueue every non-terminal job for deterministic re-execution.
// The service determinism contract (result JSON is a pure function of
// the request) is what makes this sound: at-least-once re-execution of
// a journaled request reproduces the exact result bytes, so recovery
// gives exactly-once-observable semantics without distributed
// coordination.
//
// # Writing and syncing
//
// Write frames a record and writes it to the active segment without an
// fsync, returning its sequence number; the record survives a process
// kill (it is in the page cache) but not an OS crash until it is
// synced. Sync(seq) is a group commit: it returns once every record
// through seq is on disk. Concurrent callers share one fsync — whoever
// finds no fsync in flight issues one covering everything written so
// far, and the rest wait for it — and the journal lock is not held
// during the fsync, so writers keep appending behind it. A rotation
// syncs its compacted segment, which counts as a sync of every record
// written before it. Append is Write then Sync. Close syncs whatever is
// still unsynced.
//
// The service fsyncs exactly the records recovery cannot re-derive:
// the accepted record (the job itself) is synced before the submission
// is acknowledged, and failed and canceled records are appended, since
// their outcome is not a pure function of the request. Running, done
// and evicted records are only written: losing one to an OS crash makes
// recovery re-execute or re-trim the job, which reproduces identical
// bytes, and each becomes durable at the next sync or rotation.
//
// # On-disk format
//
// A journal is a directory of segment files seg-NNNNNNNN.wal. Each
// segment is a sequence of framed records:
//
//	[4B little-endian payload length][4B CRC32-C of payload][payload]
//
// where the payload is the JSON encoding of Record. Replay walks the
// segments in order and stops at the first frame that fails to parse —
// short header, short payload, checksum mismatch, or invalid JSON.
// Everything from that point on is the torn tail of an interrupted
// write (or real corruption): the segment is truncated at the last
// valid record, later segments are dropped, and Open succeeds with the
// damage reported in RecoveryStats — a torn tail is
// recovered-with-truncation, never a startup failure. A job whose
// terminal record fell in the truncated tail simply replays as
// non-terminal and is re-executed.
//
// # Rotation and compaction
//
// When the active segment exceeds the larger of Options.MaxSegmentBytes
// and twice the size of the last compacted rewrite, the journal
// rotates: the live state (one accepted record per known job, its
// running marker if running, and its terminal record if finished) is
// rewritten compacted into a fresh segment, the new segment is synced,
// and the old segments are deleted. The doubling keeps rotation
// amortized when the live state itself outgrows the bound: N writes
// cost O(log N) rewrites, not one rewrite each. Jobs the service has
// evicted from its retention window are tombstoned with an evicted
// record and drop out entirely at the next compaction, so the
// journal's size is bounded by the service's own retention bound, not
// by uptime.
//
// # Fault hooks
//
// Faults mirrors the nil-check-only hook pattern of expt.FaultHooks:
// a nil *Faults (the default everywhere outside crash tests) costs one
// nil check per write. internal/faultinject compiles deterministic
// disk fault plans (FailJournalAppend, TornWrite, SlowFsync) into
// these hooks for the kill-based crash harness in internal/service.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Record types: one per job state transition, plus the eviction
// tombstone. The strings are the on-disk contract — never renumber or
// reuse them.
const (
	TypeAccepted = "accepted"
	TypeRunning  = "running"
	TypeDone     = "done"
	TypeFailed   = "failed"
	TypeCanceled = "canceled"
	TypeEvicted  = "evicted"
)

// Record is one journal entry. Which fields are meaningful depends on
// Type; Seq is assigned by Write and is monotonic across segments.
type Record struct {
	Seq  uint64 `json:"seq"`
	Type string `json:"type"`
	Job  string `json:"job"`

	// Accepted records carry the submission: the canonicalized request
	// JSON (the experiments array exactly as the service will re-execute
	// it), its hash, and the client's idempotency key if one was given.
	Key     string          `json:"key,omitempty"`
	ReqHash string          `json:"req_hash,omitempty"`
	Request json.RawMessage `json:"request,omitempty"`
	// Tenant names the submitting tenant on accepted records, so
	// recovery restores per-tenant quota accounting; empty means the
	// anonymous tenant (schema-additive: records written before tenancy
	// existed decode with the empty value).
	Tenant string `json:"tenant,omitempty"`

	// Failed/canceled records carry the stable taxonomy code and the
	// free-text message.
	Code  string `json:"code,omitempty"`
	Error string `json:"error,omitempty"`

	// Done records carry the result document (the results array the
	// service serves) and its hash, so a recovered terminal job is
	// queryable without re-execution and the bytes are integrity-checked
	// at recovery.
	ResultHash string          `json:"result_hash,omitempty"`
	Results    json.RawMessage `json:"results,omitempty"`
}

// Record constructors — one per transition, so call sites cannot
// mis-assemble a record. The optional Tenant field is set directly on
// the Accepted record by callers that run with tenancy enabled.

func Accepted(job, key, reqHash string, request json.RawMessage) Record {
	return Record{Type: TypeAccepted, Job: job, Key: key, ReqHash: reqHash, Request: request}
}
func Running(job string) Record { return Record{Type: TypeRunning, Job: job} }
func Done(job, resultHash string, results json.RawMessage) Record {
	return Record{Type: TypeDone, Job: job, ResultHash: resultHash, Results: results}
}
func Failed(job, code, msg string) Record {
	return Record{Type: TypeFailed, Job: job, Code: code, Error: msg}
}
func Canceled(job, code, msg string) Record {
	return Record{Type: TypeCanceled, Job: job, Code: code, Error: msg}
}
func Evicted(job string) Record { return Record{Type: TypeEvicted, Job: job} }

// JobState is one job's replayed state: its accepted-record fields plus
// the latest transition observed. Status is one of the Type* constants
// except TypeEvicted (evicted jobs are deleted from the state map).
type JobState struct {
	Seq     uint64
	ID      string
	Key     string
	ReqHash string
	Request json.RawMessage
	// Tenant is the submitting tenant's name; empty means anonymous.
	Tenant string

	Status     string
	Code       string
	Error      string
	ResultHash string
	Results    json.RawMessage
}

// Terminal reports whether the job reached a terminal state before the
// crash (and so must be restored, not re-executed).
func (s *JobState) Terminal() bool {
	return s.Status == TypeDone || s.Status == TypeFailed || s.Status == TypeCanceled
}

// RecoveryStats reports what Open found and what it had to repair.
type RecoveryStats struct {
	// Segments found on disk at open (before any drop).
	Segments int
	// Records replayed successfully.
	Records int
	// Jobs live after replay (terminal + non-terminal, minus evicted).
	Jobs int
	// TruncatedBytes is the size of the torn/corrupt tail discarded from
	// the damaged segment (0 on a clean open).
	TruncatedBytes int64
	// DroppedSegments counts whole segments discarded because they
	// followed a corrupt record (0 on a clean open; a torn tail from a
	// crash always sits in the last segment).
	DroppedSegments int
}

// Faults are the journal's deterministic disk fault hooks, compiled by
// internal/faultinject. A nil *Faults is the production default and
// costs one nil check per write; none of the hooks is on any per-shot
// path.
type Faults struct {
	// Append runs before each record write; a non-nil error fails that
	// write (the caller sees a journal write failure).
	Append func() error
	// Torn may return a strict prefix of the framed record to write in
	// its place, simulating a write torn by a crash: the prefix is
	// written, the append reports success, and the journal wedges (later
	// appends become silent no-ops) so the torn bytes stay the tail —
	// exactly the on-disk state an OS-level torn write leaves behind.
	// Returning nil leaves the record intact.
	Torn func(frame []byte) []byte
	// Fsync runs before each group-commit fsync, outside the journal
	// lock (sleep here to simulate a slow disk); a non-nil error fails
	// that fsync.
	Fsync func() error
}

// Counters is the journal's write activity since Open; records per
// fsync is Appends/Fsyncs.
type Counters struct {
	// Appends counts records written, by Write or Append.
	Appends uint64
	// Fsyncs counts fsyncs of segment data: group commits plus
	// rotations. Under Options.DisableFsync it counts the commits that
	// would have fsync'd.
	Fsyncs uint64
}

// Options configures Open.
type Options struct {
	// Dir is the journal directory; created if absent.
	Dir string
	// MaxSegmentBytes triggers rotation + compaction when the active
	// segment grows past it, or past twice the last compacted rewrite
	// if that is larger (default 4 MiB).
	MaxSegmentBytes int64
	// DisableFsync skips every fsync (tests only: a SIGKILL still
	// observes everything written, but a power loss would not).
	DisableFsync bool
	// Faults installs disk fault hooks; nil in production.
	Faults *Faults
}

const (
	frameHeader           = 8
	defaultMaxSegment     = 4 << 20
	maxRecordBytes        = 64 << 20 // corrupt-length guard, far above any real record
	segmentPrefix         = "seg-"
	segmentSuffix         = ".wal"
	segmentNameFormat     = segmentPrefix + "%08d" + segmentSuffix
	firstSegmentIndex int = 1
)

var (
	crcTable  = crc32.MakeTable(crc32.Castagnoli)
	errClosed = errors.New("journal: closed")
)

// Journal is an open write-ahead log. All methods are safe for
// concurrent use.
type Journal struct {
	mu      sync.Mutex
	dir     string
	maxSeg  int64
	noSync  bool
	faults  *Faults
	f       *os.File
	segIdx  int
	size    int64
	nextSeq uint64
	wedged  bool
	state   map[string]*JobState
	stats   RecoveryStats
	count   Counters
	// lastCompact is the size of the last compacted rewrite; the
	// rotation threshold is the larger of maxSeg and twice it.
	lastCompact int64
	// synced is the highest sequence number known to be on disk.
	// syncing is set while a group-commit fsync runs outside mu;
	// syncDone is broadcast when it ends.
	synced   uint64
	syncing  bool
	syncDone *sync.Cond
}

func segmentPath(dir string, idx int) string {
	return filepath.Join(dir, fmt.Sprintf(segmentNameFormat, idx))
}

// Open replays the journal in dir (creating it if absent), repairs any
// torn tail by truncation, and returns the journal ready for appends.
// It never fails because of a torn or corrupt tail — only on real I/O
// errors (unreadable directory, failed truncate).
func Open(opts Options) (*Journal, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("journal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	maxSeg := opts.MaxSegmentBytes
	if maxSeg <= 0 {
		maxSeg = defaultMaxSegment
	}
	j := &Journal{
		dir:     opts.Dir,
		maxSeg:  maxSeg,
		noSync:  opts.DisableFsync,
		faults:  opts.Faults,
		segIdx:  firstSegmentIndex,
		nextSeq: 1,
		state:   make(map[string]*JobState),
	}
	j.syncDone = sync.NewCond(&j.mu)

	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	j.stats.Segments = len(segs)
	if err := j.replay(segs); err != nil {
		return nil, err
	}
	j.stats.Jobs = len(j.state)
	// Sync covers records written from here on; replayed ones are
	// whatever the disk already holds.
	j.synced = j.nextSeq - 1

	f, err := os.OpenFile(segmentPath(j.dir, j.segIdx), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.f, j.size = f, fi.Size()
	return j, nil
}

// listSegments returns the segment indices present in dir, sorted.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var segs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix))
		if err != nil {
			continue
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	return segs, nil
}

// replay walks the segments in order, applying every valid record. The
// first invalid frame ends the replay: that segment is truncated at the
// last valid record and every later segment is deleted (monotonic
// sequence numbers mean everything after a bad record is suspect; in
// the crash case the bad record is always the torn tail of the last
// segment and nothing follows it).
func (j *Journal) replay(segs []int) error {
	for i, idx := range segs {
		j.segIdx = idx
		path := segmentPath(j.dir, idx)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		off, bad := int64(0), false
		for off < int64(len(data)) {
			rec, n, ok := parseFrame(data[off:])
			if !ok {
				bad = true
				break
			}
			j.apply(rec)
			if rec.Seq >= j.nextSeq {
				j.nextSeq = rec.Seq + 1
			}
			j.stats.Records++
			off += n
		}
		if !bad {
			continue
		}
		j.stats.TruncatedBytes += int64(len(data)) - off
		if err := os.Truncate(path, off); err != nil {
			return fmt.Errorf("journal: truncating torn tail: %w", err)
		}
		for _, later := range segs[i+1:] {
			fi, err := os.Stat(segmentPath(j.dir, later))
			if err == nil {
				j.stats.TruncatedBytes += fi.Size()
			}
			if err := os.Remove(segmentPath(j.dir, later)); err != nil {
				return fmt.Errorf("journal: dropping segment after corrupt record: %w", err)
			}
			j.stats.DroppedSegments++
		}
		syncDir(j.dir)
		break
	}
	return nil
}

// parseFrame decodes one framed record from the front of b, returning
// the record, the frame's total length, and whether the frame was
// valid and complete.
func parseFrame(b []byte) (Record, int64, bool) {
	var rec Record
	if len(b) < frameHeader {
		return rec, 0, false
	}
	n := binary.LittleEndian.Uint32(b)
	if n == 0 || n > maxRecordBytes || int64(len(b)-frameHeader) < int64(n) {
		return rec, 0, false
	}
	payload := b[frameHeader : frameHeader+int64(n)]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[4:]) {
		return rec, 0, false
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, 0, false
	}
	return rec, frameHeader + int64(n), true
}

// apply folds one record into the replayed state map.
func (j *Journal) apply(rec Record) {
	switch rec.Type {
	case TypeAccepted:
		j.state[rec.Job] = &JobState{
			Seq: rec.Seq, ID: rec.Job, Key: rec.Key, ReqHash: rec.ReqHash,
			Request: rec.Request, Tenant: rec.Tenant, Status: TypeAccepted,
		}
	case TypeRunning:
		if st := j.state[rec.Job]; st != nil {
			st.Status = TypeRunning
		}
	case TypeDone:
		if st := j.state[rec.Job]; st != nil {
			st.Status, st.ResultHash, st.Results = TypeDone, rec.ResultHash, rec.Results
		}
	case TypeFailed, TypeCanceled:
		if st := j.state[rec.Job]; st != nil {
			st.Status, st.Code, st.Error = rec.Type, rec.Code, rec.Error
		}
	case TypeEvicted:
		delete(j.state, rec.Job)
	}
}

// States returns the replayed (and since-appended) job states in
// submission order. The returned values are copies.
func (j *Journal) States() []*JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]*JobState, 0, len(j.state))
	for _, st := range j.state {
		cp := *st
		out = append(out, &cp)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Stats returns the recovery statistics from Open.
func (j *Journal) Stats() RecoveryStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Write frames rec and writes it to the active segment without an
// fsync, returning its sequence number: the record survives a process
// kill at once, and an OS crash once Sync(seq) returns. Rotation and
// compaction happen transparently when the active segment outgrows its
// bound. On a wedged journal (a simulated torn write) Write is a silent
// no-op returning seq 0.
func (j *Journal) Write(rec Record) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.wedged {
		// A simulated torn write ended this journal's usable life the
		// same way a crash would have; the harness SIGKILLs shortly.
		return 0, nil
	}
	if j.f == nil {
		return 0, errClosed
	}
	if f := j.faults; f != nil && f.Append != nil {
		if err := f.Append(); err != nil {
			return 0, fmt.Errorf("journal: append: %w", err)
		}
	}
	rec.Seq = j.nextSeq
	frame, err := encodeFrame(rec)
	if err != nil {
		return 0, err
	}
	if f := j.faults; f != nil && f.Torn != nil {
		if torn := f.Torn(frame); torn != nil && len(torn) < len(frame) {
			j.f.Write(torn)
			j.fsync(j.f)
			j.wedged = true
			return 0, nil
		}
	}
	if _, err := j.f.Write(frame); err != nil {
		return 0, fmt.Errorf("journal: append: %w", err)
	}
	j.nextSeq++
	j.size += int64(len(frame))
	j.count.Appends++
	j.apply(rec)
	if j.size > max(j.maxSeg, 2*j.lastCompact) {
		if err := j.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return rec.Seq, nil
}

// Sync is a group commit: it returns once every record through seq (a
// sequence number Write returned) is on disk. Concurrent callers share
// one fsync — a caller that finds an fsync in flight waits for it and
// issues the next one only if that did not cover its record — and the
// fsync runs without the journal lock, so Write proceeds meanwhile. A
// rotation's synced segment counts: after one, Sync of any earlier
// record returns without an fsync.
func (j *Journal) Sync(seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if seq <= j.synced || j.wedged {
			return nil
		}
		if j.f == nil {
			return errClosed
		}
		if !j.syncing {
			break
		}
		j.syncDone.Wait()
	}
	j.syncing = true
	f, through := j.f, j.nextSeq-1
	j.mu.Unlock()
	err := j.fsync(f)
	j.mu.Lock()
	j.syncing = false
	j.syncDone.Broadcast()
	if err == nil {
		j.count.Fsyncs++
		j.synced = max(j.synced, through)
	} else if seq <= j.synced {
		// A rotation or Close synced the record while this fsync ran
		// (and may have closed f under it).
		err = nil
	}
	return err
}

// Append durably appends one record: Write, then Sync — the record is
// on disk (modulo DisableFsync) before Append returns nil.
func (j *Journal) Append(rec Record) error {
	seq, err := j.Write(rec)
	if err != nil {
		return err
	}
	return j.Sync(seq)
}

// Counters returns the journal's write activity since Open.
func (j *Journal) Counters() Counters {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.count
}

func encodeFrame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding record: %w", err)
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	copy(frame[frameHeader:], payload)
	return frame, nil
}

// fsync runs the Fsync fault hook, then fsyncs f unless DisableFsync.
// It touches only fields fixed at Open, so it runs with or without mu.
func (j *Journal) fsync(f *os.File) error {
	if h := j.faults; h != nil && h.Fsync != nil {
		if err := h.Fsync(); err != nil {
			return fmt.Errorf("journal: fsync: %w", err)
		}
	}
	if j.noSync {
		return nil
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	return nil
}

// rotateLocked rewrites the live state compacted into a fresh segment
// and deletes the old ones. Crash-safe: the new segment is fully
// written and synced before any old segment is removed, and replay
// tolerates the transient duplication (a re-applied accepted record is
// idempotent).
func (j *Journal) rotateLocked() error {
	sts := make([]*JobState, 0, len(j.state))
	for _, st := range j.state {
		sts = append(sts, st)
	}
	sort.Slice(sts, func(a, b int) bool { return sts[a].Seq < sts[b].Seq })

	newIdx := j.segIdx + 1
	path := segmentPath(j.dir, newIdx)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: rotate: %w", err)
	}
	var size int64
	for _, st := range sts {
		recs := st.records()
		// The job keeps its relative submission order under the fresh
		// sequence numbers: states were iterated in old-seq order.
		st.Seq = j.nextSeq
		for _, rec := range recs {
			rec.Seq = j.nextSeq
			j.nextSeq++
			frame, err := encodeFrame(rec)
			if err != nil {
				f.Close()
				return err
			}
			if _, err := f.Write(frame); err != nil {
				f.Close()
				return fmt.Errorf("journal: rotate: %w", err)
			}
			size += int64(len(frame))
		}
	}
	if !j.noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("journal: rotate: %w", err)
		}
	}
	syncDir(j.dir)

	old, oldIdx := j.f, j.segIdx
	j.f, j.segIdx, j.size, j.lastCompact = f, newIdx, size, size
	// The compacted segment holds the state of every record written so
	// far, so it is a sync of all of them.
	j.synced = j.nextSeq - 1
	j.count.Fsyncs++
	old.Close()
	for idx := oldIdx; idx >= firstSegmentIndex; idx-- {
		p := segmentPath(j.dir, idx)
		if _, err := os.Stat(p); err != nil {
			break
		}
		os.Remove(p)
	}
	syncDir(j.dir)
	return nil
}

// records reconstructs the compacted record sequence for one job state.
func (st *JobState) records() []Record {
	acc := Accepted(st.ID, st.Key, st.ReqHash, st.Request)
	acc.Tenant = st.Tenant
	recs := []Record{acc}
	switch st.Status {
	case TypeRunning:
		recs = append(recs, Running(st.ID))
	case TypeDone:
		recs = append(recs, Done(st.ID, st.ResultHash, st.Results))
	case TypeFailed:
		recs = append(recs, Failed(st.ID, st.Code, st.Error))
	case TypeCanceled:
		recs = append(recs, Canceled(st.ID, st.Code, st.Error))
	}
	return recs
}

// Close syncs the active segment (making every written record durable)
// and closes it. Write fails afterwards.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	var err error
	if !j.noSync && !j.wedged {
		err = j.f.Sync()
	}
	if err == nil {
		j.synced = j.nextSeq - 1
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// syncDir fsyncs a directory so segment creations/removals are durable.
// Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
