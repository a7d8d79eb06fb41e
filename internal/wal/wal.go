// Package wal implements the segmented append-only write-ahead log that
// gives the exertion space and the lookup registry crash-consistent
// durability. The paper's substrates lean on a persistent JavaSpaces
// (Outrigger) and a durable Jini registrar: a Spacer-federated exertion
// survives provider restarts because the space outlives the process. This
// package supplies the missing persistence in the ARIES / ZooKeeper shape:
// an append-only redo log with length+CRC32 framing, periodic snapshots,
// segment compaction, and deterministic replay.
//
// Records are opaque byte payloads framed as
//
//	4B little-endian length | 4B little-endian CRC32(payload) | payload
//
// and numbered by a monotonically increasing sequence. Segments are files
// named wal-<firstseq>.seg; a snapshot file snap-<seq>.snap supersedes
// every record with sequence <= seq, after which older segments are
// compacted away. Opening a log truncates a torn tail — a partial or
// CRC-corrupt final record left by a crash mid-write — so the log always
// reopens to the longest acknowledged prefix.
//
// Crash points are first-class fault sites (FaultSiteAppend, FaultSiteSync,
// FaultSiteSnapshot) consulted through an injected faults.Injector, and
// ArmTornWrites makes an injected append failure leave a seeded-random
// partial frame on disk — the chaos suite's "kill the process mid-write at
// a randomized offset".
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/faults"
)

// Fault-injection site suffixes appended to the base site handed to
// SetFaultInjector. They are the log's three crash points: a record append,
// an fsync, and a snapshot write.
const (
	// FaultSiteAppend is consulted by Append before framing a record.
	// Injected errors fail the append; with ArmTornWrites armed, a seeded
	// random prefix of the frame is left on disk first — a torn write.
	// Either way the log is failed afterwards, like a process that died.
	FaultSiteAppend = "/wal/append"
	// FaultSiteSync is consulted by Sync (and the per-append sync).
	// Injected errors fail the log: an fsync whose outcome is unknown
	// cannot be retried safely.
	FaultSiteSync = "/wal/sync"
	// FaultSiteSnapshot is consulted by WriteSnapshot before the snapshot
	// file is staged. Injected errors abandon the snapshot; the log and
	// its segments are untouched.
	FaultSiteSnapshot = "/wal/snapshot"
)

// Errors returned by log operations.
var (
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("wal: log closed")
	// ErrFailed is returned once a previous append or sync failed: the
	// log behaves like a crashed process and refuses further writes.
	ErrFailed = errors.New("wal: log failed; reopen to recover")
	// ErrCorrupt reports corruption that torn-tail truncation cannot
	// explain — a bad record before the final segment's tail.
	ErrCorrupt = errors.New("wal: log corrupt")
)

const (
	headerSize = 8
	// maxRecordSize bounds a single record; a length beyond it is treated
	// as corruption rather than an allocation request.
	maxRecordSize = 64 << 20
	// DefaultSegmentLimit is the rotation threshold for segment files.
	DefaultSegmentLimit = 1 << 20

	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

// Option configures a Log.
type Option func(*Log)

// WithClock injects the clock used to timestamp snapshots (default real).
func WithClock(c clockwork.Clock) Option {
	return func(l *Log) { l.clock = c }
}

// WithSegmentLimit sets the size at which the active segment rotates.
func WithSegmentLimit(bytes int64) Option {
	return func(l *Log) {
		if bytes > 0 {
			l.segLimit = bytes
		}
	}
}

// WithSyncEveryAppend controls whether each Append fsyncs before being
// acknowledged (default true — an acked record survives a crash). Turning
// it off trades the post-crash durability of the unsynced suffix for
// throughput; the torn-tail scan still recovers the longest valid prefix.
func WithSyncEveryAppend(sync bool) Option {
	return func(l *Log) { l.syncEach = sync }
}

// Group-commit defaults: how many records one leader's fsync may
// acknowledge, and the longest a leader lingers for followers before its
// fsync. The linger only happens when the workload looks concurrent
// (appenders en route to the lock, or a previous batch that actually
// coalesced), so a strictly sequential appender never pays it.
const (
	DefaultGroupBatch = 1024
	DefaultGroupWait  = 50 * time.Microsecond
)

// WithGroupCommit tunes the durable-append batching. Synced appends
// coalesce leader/follower style: the first appender needing durability
// becomes the leader and fsyncs once for every record written so far
// (bounded by maxBatch); appends arriving during that fsync form the next
// batch. maxWait bounds how long the leader additionally lingers — on the
// injected clock, and only when other appenders look imminent — so the
// followers a batch just woke can land their next records in this one,
// trading bounded ack latency for an fsync shared by the whole group.
// Durability semantics are unchanged — no append is acknowledged before
// the fsync covering it returns.
//
// WithGroupCommit(1, 0) degenerates to the historical one-fsync-per-append
// behavior (the baseline the group-commit benchmarks compare against).
func WithGroupCommit(maxBatch int, maxWait time.Duration) Option {
	return func(l *Log) {
		if maxBatch > 0 {
			l.groupBatch = uint64(maxBatch)
		}
		if maxWait > 0 {
			l.groupWait = maxWait
		}
	}
}

// segment is one on-disk log file.
type segment struct {
	name  string // file name within dir
	first uint64 // sequence of its first record
	count uint64 // records it holds (maintained for the active segment)
}

// Log is a segmented write-ahead log. All methods are safe for concurrent
// use.
type Log struct {
	dir        string
	clock      clockwork.Clock
	segLimit   int64
	syncEach   bool
	groupBatch uint64
	groupWait  time.Duration

	mu       sync.Mutex
	segs     []segment
	file     *os.File // active (last) segment, append-only
	buf      []byte   // framed records not yet written to file
	fileSize int64    // bytes in file plus bytes buffered
	nextSeq  uint64
	snapSeq  uint64
	snapData []byte
	snapTime time.Time
	closed   bool
	failed   bool

	// Group-commit state: syncedSeq is the highest sequence covered by a
	// completed fsync; syncInFlight marks a leader mid-fsync (it drops mu
	// for the syscall); syncDone is broadcast whenever either changes, and
	// also gates rotation, snapshots and Close against an in-flight fsync.
	// arriving counts appenders that have entered Append but not yet
	// written their record — the leader's join window watches it without
	// the mutex, so those appenders can actually take the lock and land in
	// the current batch.
	syncedSeq    uint64
	syncInFlight bool
	syncDone     *sync.Cond
	arriving     atomic.Int64
	lastBatch    uint64 // records acked by the most recent group fsync

	inj     *faults.Injector
	injSite string
	tornRng *rand.Rand
}

// Open opens (or creates) the log in dir, truncating any torn tail left by
// a crash. The returned log is positioned to append after the last intact
// record.
func Open(dir string, opts ...Option) (*Log, error) {
	l := &Log{
		dir:        dir,
		clock:      clockwork.Real(),
		segLimit:   DefaultSegmentLimit,
		syncEach:   true,
		groupBatch: DefaultGroupBatch,
		groupWait:  DefaultGroupWait,
	}
	for _, o := range opts {
		o(l)
	}
	l.syncDone = sync.NewCond(&l.mu)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	if err := l.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := l.loadSegments(); err != nil {
		return nil, err
	}
	// Everything recovered from disk is as durable as it will ever be.
	l.syncedSeq = l.nextSeq - 1
	return l, nil
}

// loadSnapshot finds the newest intact snapshot file and caches it.
func (l *Log) loadSnapshot() error {
	names, err := l.listFiles(snapPrefix, snapSuffix)
	if err != nil {
		return err
	}
	// Newest first; fall back through corrupt/torn snapshot files (a crash
	// between staging and rename can leave none, never a half-renamed one,
	// but be defensive about external damage).
	for i := len(names) - 1; i >= 0; i-- {
		seq, ok := parseSeqName(names[i], snapPrefix, snapSuffix)
		if !ok {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(l.dir, names[i]))
		if err != nil {
			return fmt.Errorf("wal: reading snapshot %s: %w", names[i], err)
		}
		payload, _, perr := parseRecord(raw)
		if perr != nil || len(payload) < 8 {
			continue
		}
		l.snapSeq = seq
		l.snapTime = time.Unix(0, int64(binary.LittleEndian.Uint64(payload))).UTC()
		l.snapData = append([]byte(nil), payload[8:]...)
		return nil
	}
	return nil
}

// loadSegments scans segment files in order, truncates the torn tail of the
// final one, and opens it for appending.
func (l *Log) loadSegments() error {
	names, err := l.listFiles(segPrefix, segSuffix)
	if err != nil {
		return err
	}
	for _, name := range names {
		first, ok := parseSeqName(name, segPrefix, segSuffix)
		if !ok {
			continue
		}
		l.segs = append(l.segs, segment{name: name, first: first})
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].first < l.segs[j].first })

	l.nextSeq = l.snapSeq + 1
	for i := range l.segs {
		last := i == len(l.segs)-1
		count, keep, err := l.scanSegment(&l.segs[i], last)
		if err != nil {
			return err
		}
		l.segs[i].count = count
		l.fileSize = keep
		if l.segs[i].first+count > l.nextSeq {
			l.nextSeq = l.segs[i].first + count
		}
	}
	if len(l.segs) == 0 {
		return l.startSegmentLocked()
	}
	active := filepath.Join(l.dir, l.segs[len(l.segs)-1].name)
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening active segment: %w", err)
	}
	l.file = f
	return nil
}

// scanSegment validates a segment's records. For the final segment a bad
// tail is truncated to the last intact record; anywhere else it is
// corruption. Returns the record count and the byte length kept.
func (l *Log) scanSegment(seg *segment, last bool) (count uint64, keep int64, err error) {
	path := filepath.Join(l.dir, seg.name)
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: reading segment %s: %w", seg.name, err)
	}
	off := 0
	for off < len(raw) {
		payload, n, perr := parseRecord(raw[off:])
		if perr != nil {
			if !last {
				return 0, 0, fmt.Errorf("%w: segment %s offset %d: %v", ErrCorrupt, seg.name, off, perr)
			}
			// Torn tail: drop everything from the first bad frame on.
			if terr := os.Truncate(path, int64(off)); terr != nil {
				return 0, 0, fmt.Errorf("wal: truncating torn tail of %s: %w", seg.name, terr)
			}
			return count, int64(off), nil
		}
		_ = payload
		off += n
		count++
	}
	return count, int64(off), nil
}

// parseRecord decodes one framed record from b, returning the payload and
// the total frame length consumed.
func parseRecord(b []byte) (payload []byte, n int, err error) {
	if len(b) < headerSize {
		return nil, 0, errors.New("short header")
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	sum := binary.LittleEndian.Uint32(b[4:8])
	if length > maxRecordSize {
		return nil, 0, fmt.Errorf("implausible record length %d", length)
	}
	if len(b) < headerSize+int(length) {
		return nil, 0, errors.New("short payload")
	}
	payload = b[headerSize : headerSize+int(length)]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, errors.New("crc mismatch")
	}
	return payload, headerSize + int(length), nil
}

// frameRecord encodes payload with the length+CRC header.
func frameRecord(payload []byte) []byte {
	return appendFrame(make([]byte, 0, headerSize+len(payload)), payload)
}

// appendFrame appends payload's frame — length+CRC header, then the
// payload — to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

func (l *Log) listFiles(prefix, suffix string) ([]string, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing %s: %w", l.dir, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), prefix) && strings.HasSuffix(e.Name(), suffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// parseSeqName extracts the sequence number embedded in a file name.
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	digits := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	var seq uint64
	if _, err := fmt.Sscanf(digits, "%d", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

func segName(first uint64) string { return fmt.Sprintf("%s%020d%s", segPrefix, first, segSuffix) }
func snapName(seq uint64) string  { return fmt.Sprintf("%s%020d%s", snapPrefix, seq, snapSuffix) }

// SetFaultInjector arms chaos hooks: Append consults "<site>"+FaultSiteAppend,
// Sync "<site>"+FaultSiteSync and WriteSnapshot "<site>"+FaultSiteSnapshot.
func (l *Log) SetFaultInjector(inj *faults.Injector, site string) {
	l.mu.Lock()
	l.inj = inj
	l.injSite = site
	l.mu.Unlock()
}

// ArmTornWrites makes injected append failures leave a partial frame on
// disk: the crash happens mid-write, at a seed-deterministic offset into
// the record. Chaos only; without arming, injected append errors write
// nothing.
func (l *Log) ArmTornWrites(seed int64) {
	l.mu.Lock()
	l.tornRng = rand.New(rand.NewSource(seed))
	l.mu.Unlock()
}

// Append durably adds a record and returns its sequence number. The record
// is acknowledged only after it (and, with per-append sync, the fsync of
// the group-commit batch covering it) succeeded; any failure fails the
// whole log, which must then be reopened.
//
// Durable appends coalesce: the record is written under the lock, then the
// caller joins the group-commit protocol (awaitDurableLocked) — one leader
// fsyncs for every record written so far, so concurrent appenders share a
// single fsync instead of paying one each.
func (l *Log) Append(payload []byte) (uint64, error) {
	// The arriving count covers the span from "wants to append" to "record
	// framed in the file": a group-commit leader watches it (lock-free) to
	// hold its batch open while appenders are still en route to the lock.
	l.arriving.Add(1)
	l.mu.Lock()
	defer l.mu.Unlock()
	seq, err := l.appendLocked(payload)
	l.arriving.Add(-1)
	if err != nil {
		return 0, err
	}
	if l.syncEach {
		if err := l.awaitDurableLocked(seq); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// AppendBatch durably adds every payload as its own record under one
// lock acquisition and — with per-append sync — one group-commit
// acknowledgement covering the whole batch, so a caller with n records
// in hand pays one fsync instead of n. Records receive consecutive
// sequences; the first is returned. An empty batch is a no-op (0, nil).
//
// The batch is atomic in the fail-stop sense of the log, not
// transactionally: a failure mid-batch fails the whole log (it must be
// reopened), so no later append can interleave with a half-applied
// batch, and records already framed replay only if the crash-recovered
// prefix covers them — exactly the semantics of n sequential Appends
// that all happened to share a crash.
func (l *Log) AppendBatch(payloads [][]byte) (uint64, error) {
	if len(payloads) == 0 {
		return 0, nil
	}
	l.arriving.Add(1)
	l.mu.Lock()
	defer l.mu.Unlock()
	first := uint64(0)
	var last uint64
	for i, p := range payloads {
		seq, err := l.appendLocked(p)
		if err != nil {
			l.arriving.Add(-1)
			return 0, err
		}
		if i == 0 {
			first = seq
		}
		last = seq
	}
	l.arriving.Add(-1)
	if l.syncEach {
		if err := l.awaitDurableLocked(last); err != nil {
			return 0, err
		}
	}
	return first, nil
}

// appendLocked frames and writes one record, returning its sequence.
// Caller holds s.mu and is accounted in l.arriving.
//
//lint:blockok group commit: records are framed under l.mu by contract; the coalesced fsync and its waiters are the WAL's durable-before-ack design
func (l *Log) appendLocked(payload []byte) (uint64, error) {
	if err := l.usableLocked(); err != nil {
		return 0, err
	}
	if err := l.inj.Inject(l.injSite + FaultSiteAppend); err != nil {
		// Simulated crash mid-write: push the buffered records out (they
		// reached the kernel before the crash point) and optionally tear
		// the frame — leave a partial prefix on disk, no record completed —
		// then die.
		if len(l.buf) > 0 {
			_, _ = l.file.Write(l.buf)
			l.buf = l.buf[:0]
		}
		if l.tornRng != nil {
			frame := frameRecord(payload)
			if torn := frame[:l.tornRng.Intn(len(frame))]; len(torn) > 0 {
				_, _ = l.file.Write(torn)
			}
		}
		l.failLocked()
		return 0, err
	}
	// Rotation closes the active file, so it must not race an in-flight
	// group-commit fsync. A synced log therefore rotates in the leader,
	// right after its fsync (when no sync can be in flight); only the
	// no-sync configuration — where no fsync is ever in flight — rotates
	// inline. An appender must never block on the sync condition here: it
	// would park inside Append while new leaders keep re-claiming the sync
	// slot, starving it (and holding l.arriving up) indefinitely.
	if l.fileSize >= l.segLimit && !l.syncEach {
		if err := l.rotateLocked(); err != nil {
			l.failLocked()
			return 0, err
		}
	}
	// Frame the record straight into the buffer instead of writing it:
	// the appender's critical section is then pure memory, so concurrent
	// appenders can frame records while a group-commit leader is mid-fsync
	// without stalling in a write syscall behind the filesystem journal.
	// The buffer reaches the kernel in flushLocked — always before the
	// fsync that would acknowledge its records, so durability semantics
	// are unchanged.
	l.buf = appendFrame(l.buf, payload)
	l.fileSize += int64(headerSize + len(payload))
	seq := l.nextSeq
	l.nextSeq++
	seg, _ := l.segLast()
	seg.count++
	return seq, nil
}

// flushLocked hands the buffered frames to the kernel. Buffered records
// carry no durability promise yet (every ack path flushes before its
// fsync), so a crash that loses the buffer only drops unacknowledged
// appends. A write failure fails the log like any torn append.
func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	if _, err := l.file.Write(l.buf); err != nil {
		l.failLocked()
		return fmt.Errorf("wal: append: %w", err)
	}
	l.buf = l.buf[:0]
	return nil
}

// failLocked marks the log failed and wakes every group-commit waiter so
// they observe the failure instead of sleeping forever.
func (l *Log) failLocked() {
	l.failed = true
	l.syncDone.Broadcast()
}

// waitSyncIdleLocked blocks until no group-commit fsync is in flight.
//
//lint:blockok group commit: waiting out the in-flight fsync under l.mu (Cond.Wait releases it while parked) is the WAL's serialization point
func (l *Log) waitSyncIdleLocked() {
	for l.syncInFlight {
		l.syncDone.Wait()
	}
}

// awaitDurableLocked blocks until a completed fsync covers seq — the
// group-commit protocol. The first waiter that finds no fsync in flight
// becomes the leader: it (optionally, groupWait > 0) lingers for followers
// on the injected clock, picks a batch target of at most groupBatch
// records, releases the lock for the fsync syscall, and on return
// acknowledges the whole batch by advancing syncedSeq and broadcasting.
// Followers — and appenders that arrived while the fsync was in flight —
// wait on the condition and either find their record covered or take the
// leader role for the next batch. A sync failure fails the log; every
// waiter whose record is not covered returns the error, so nothing is
// acknowledged beyond what an fsync actually covered.
//
//lint:blockok group commit: the leader fsyncs (lock dropped at groupBatch > 1) and followers Cond.Wait under l.mu; durable-before-ack is the WAL's contract
func (l *Log) awaitDurableLocked(seq uint64) error {
	for l.syncedSeq < seq {
		if err := l.usableLocked(); err != nil {
			return err
		}
		if l.syncInFlight {
			l.syncDone.Wait()
			continue
		}
		// Leader. Linger for followers when the workload looks concurrent —
		// appenders already en route to the lock (l.arriving), or a
		// previous batch that coalesced more than one record. The linger
		// releases the lock and spins on the injected clock (yielding the
		// scheduler each turn) so followers can frame their records into
		// this batch; a runtime timer would be too coarse for a
		// tens-of-microseconds window. The spin cap bounds the linger even
		// on a fake clock that never advances, and a strictly sequential
		// appender (lastBatch <= 1, nobody arriving) skips it entirely.
		l.syncInFlight = true
		if l.groupBatch > 1 && l.groupWait > 0 &&
			(l.arriving.Load() > 0 || l.lastBatch > 1) &&
			l.nextSeq-1-l.syncedSeq < l.groupBatch {
			const lingerSpinCap = 1024
			deadline := l.clock.Now().Add(l.groupWait)
			l.mu.Unlock()
			for spins := 0; spins < lingerSpinCap; spins++ {
				runtime.Gosched()
				if !l.clock.Now().Before(deadline) {
					break
				}
			}
			l.mu.Lock()
			if err := l.usableLocked(); err != nil {
				l.syncInFlight = false
				l.syncDone.Broadcast()
				return err
			}
		}
		target := l.nextSeq - 1
		if max := l.syncedSeq + l.groupBatch; target > max {
			target = max
		}
		if err := l.flushLocked(); err != nil {
			l.syncInFlight = false
			l.syncDone.Broadcast()
			return err
		}
		if err := l.inj.Inject(l.injSite + FaultSiteSync); err != nil {
			l.syncInFlight = false
			l.failLocked()
			return err
		}
		// The fsync syscall runs with the mutex dropped so followers can
		// frame their records meanwhile — except at maxBatch 1, where the
		// lock is held to faithfully reproduce the historical serialized
		// one-fsync-per-append behavior the benchmarks baseline against.
		var err error
		if l.groupBatch > 1 {
			file := l.file
			l.mu.Unlock()
			err = file.Sync()
			l.mu.Lock()
		} else {
			err = l.file.Sync()
		}
		l.syncInFlight = false
		if err != nil {
			l.failLocked()
			return fmt.Errorf("wal: sync: %w", err)
		}
		if target > l.syncedSeq {
			l.lastBatch = target - l.syncedSeq
			l.syncedSeq = target
		}
		l.syncDone.Broadcast()
		// The leader just finished the only possible in-flight fsync, so the
		// active file can be sealed without racing one; segments overshoot
		// segLimit by at most the final batch. A log that failed meanwhile
		// may hold a torn frame, which only a final segment may end with.
		if l.fileSize >= l.segLimit && !l.failed {
			if err := l.rotateLocked(); err != nil {
				l.failLocked()
				return err
			}
		}
	}
	return nil
}

// Sync flushes the active segment to stable storage. A sync failure fails
// the log: after fsync reports an error the kernel may have dropped the
// dirty pages, so retrying would silently lose data.
//
//lint:blockok explicit durability point: Sync's whole purpose is to force the disk, and it must serialize against appends under l.mu
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.inj.Inject(l.injSite + FaultSiteSync); err != nil {
		l.failLocked()
		return err
	}
	target := l.nextSeq - 1
	if err := l.flushLocked(); err != nil {
		return err
	}
	if err := l.file.Sync(); err != nil {
		l.failLocked()
		return fmt.Errorf("wal: sync: %w", err)
	}
	if target > l.syncedSeq {
		l.syncedSeq = target
	}
	return nil
}

func (l *Log) usableLocked() error {
	if l.closed {
		return ErrClosed
	}
	if l.failed {
		return ErrFailed
	}
	return nil
}

// segLast returns the active segment descriptor.
func (l *Log) segLast() (*segment, bool) {
	if len(l.segs) == 0 {
		return nil, false
	}
	return &l.segs[len(l.segs)-1], true
}

// rotateLocked seals the active segment and starts a fresh one at nextSeq.
func (l *Log) rotateLocked() error {
	if l.file != nil {
		if err := l.flushLocked(); err != nil {
			return err
		}
		if err := l.file.Sync(); err != nil {
			return fmt.Errorf("wal: sealing segment: %w", err)
		}
		if err := l.file.Close(); err != nil {
			return fmt.Errorf("wal: sealing segment: %w", err)
		}
		l.file = nil
	}
	return l.startSegmentLocked()
}

func (l *Log) startSegmentLocked() error {
	name := segName(l.nextSeq)
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	l.segs = append(l.segs, segment{name: name, first: l.nextSeq})
	l.file = f
	l.fileSize = 0
	return nil
}

// WriteSnapshot atomically records a point-in-time state covering every
// sequence appended so far, then compacts: the log rotates to a fresh
// segment and deletes the superseded ones. Recovery loads the snapshot and
// replays only the records after it.
//
//lint:blockok durable checkpoint: snapshot write, fsync and compaction happen under l.mu so no append interleaves with the rotation
func (l *Log) WriteSnapshot(data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	// Compaction rotates the active segment; wait out any in-flight
	// group-commit fsync first.
	l.waitSyncIdleLocked()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if err := l.inj.Inject(l.injSite + FaultSiteSnapshot); err != nil {
		return err
	}
	seq := l.nextSeq - 1
	payload := make([]byte, 8+len(data))
	now := l.clock.Now()
	binary.LittleEndian.PutUint64(payload[:8], uint64(now.UnixNano()))
	copy(payload[8:], data)

	// Stage, fsync, rename: the snapshot either exists whole or not at all.
	tmp := filepath.Join(l.dir, snapName(seq)+".tmp")
	final := filepath.Join(l.dir, snapName(seq))
	if err := writeFileSync(tmp, frameRecord(payload)); err != nil {
		return fmt.Errorf("wal: staging snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: publishing snapshot: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return fmt.Errorf("wal: publishing snapshot: %w", err)
	}

	prevSnap := l.snapSeq
	l.snapSeq = seq
	l.snapTime = now.UTC()
	l.snapData = append([]byte(nil), data...)

	// Compact: everything appended so far is covered by the snapshot, so
	// rotate and drop the old segments, then the superseded snapshot.
	// Deletion is oldest-first and best-effort — a crash mid-compaction
	// leaves extra files whose records replay as no-ops below snapSeq.
	// An empty active segment is already positioned at nextSeq — rotating
	// would mint a second segment with the same name and the compaction
	// below would unlink the live file out from under the append handle.
	if seg, ok := l.segLast(); ok && seg.count > 0 {
		if err := l.rotateLocked(); err != nil {
			l.failed = true
			return err
		}
	}
	for len(l.segs) > 1 {
		if err := os.Remove(filepath.Join(l.dir, l.segs[0].name)); err != nil {
			break
		}
		l.segs = l.segs[1:]
	}
	if prevSnap > 0 && prevSnap != seq {
		_ = os.Remove(filepath.Join(l.dir, snapName(prevSnap)))
	}
	return nil
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed file's entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return err
	}
	return d.Close()
}

// Snapshot returns the most recent snapshot: its data, the sequence it
// covers, and when it was taken.
func (l *Log) Snapshot() (data []byte, seq uint64, taken time.Time, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.snapSeq == 0 && l.snapData == nil {
		return nil, 0, time.Time{}, false
	}
	return append([]byte(nil), l.snapData...), l.snapSeq, l.snapTime, true
}

// Replay streams every record after the snapshot, in sequence order, to fn.
// A non-nil error from fn stops the replay and is returned.
func (l *Log) Replay(fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	// Replay reads the segment files, so a live log's buffered frames must
	// reach the kernel first. A failed log skips the flush: its buffer is
	// exactly the unacknowledged suffix a crash would have dropped.
	if l.file != nil && !l.closed && !l.failed {
		if err := l.flushLocked(); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	segs := append([]segment(nil), l.segs...)
	snapSeq := l.snapSeq
	dir := l.dir
	l.mu.Unlock()
	for _, seg := range segs {
		raw, err := os.ReadFile(filepath.Join(dir, seg.name))
		if err != nil {
			return fmt.Errorf("wal: replaying %s: %w", seg.name, err)
		}
		seq := seg.first
		off := 0
		for off < len(raw) {
			payload, n, perr := parseRecord(raw[off:])
			if perr != nil {
				// The tail was validated at Open; mid-replay damage is
				// external corruption.
				return fmt.Errorf("%w: segment %s offset %d: %v", ErrCorrupt, seg.name, off, perr)
			}
			if seq > snapSeq {
				if err := fn(seq, payload); err != nil {
					return err
				}
			}
			seq++
			off += n
		}
	}
	return nil
}

// NextSeq returns the sequence the next append will receive.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// SnapshotSeq returns the sequence covered by the latest snapshot (0 when
// none exists).
func (l *Log) SnapshotSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapSeq
}

// Segments reports how many segment files the log currently spans.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Close seals the log. A failed log closes without syncing (there is
// nothing trustworthy left to flush).
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	// Let any in-flight group-commit fsync finish before the file goes
	// away; its waiters then observe closed and fail cleanly.
	l.waitSyncIdleLocked()
	l.closed = true
	l.syncDone.Broadcast()
	if l.file == nil {
		return nil
	}
	if !l.failed {
		if err := l.flushLocked(); err != nil {
			_ = l.file.Close()
			return fmt.Errorf("wal: close: %w", err)
		}
		//lint:ignore sensorlint/deepblock close-time flush: the log is already marked closed, so no appender can contend for l.mu while the final fsync runs
		if err := l.file.Sync(); err != nil {
			_ = l.file.Close()
			return fmt.Errorf("wal: close: %w", err)
		}
	}
	if err := l.file.Close(); err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	l.file = nil
	return nil
}
