// Package wal implements the write-ahead log that makes graphd's
// mutable snapshots crash-safe. Every accepted mutation batch is
// appended as one length-prefixed, CRC32-guarded record before its
// epoch receipt is returned; after each publish an epoch record is
// appended so recovery knows the highest epoch any receipt could carry.
// On restart the log is replayed on top of the last persisted
// checkpoint, stopping at the first bad CRC or short record — a torn
// tail from a crash mid-write loses only writes that were never
// acknowledged.
//
// Record wire format (little-endian):
//
//	u32 payload length | u32 CRC32(payload) | payload
//
// Payloads begin with a one-byte record type:
//
//	batch: u8 'B' | u64 seq | u32 addVertices | u32 count |
//	       count × (u32 src | u32 dst | u32 weight | u8 flags)
//	epoch: u8 'E' | u64 epoch
//
// Batch records carry the dynamic graph's batch sequence number, making
// replay idempotent across checkpoints: a checkpoint taken at sequence
// S makes every record with seq <= S a no-op on replay, so a crash
// between "checkpoint written" and "log truncated" cannot double-apply.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"graphreorder/internal/dynamic"
	"graphreorder/internal/faultinject"
	"graphreorder/internal/graph"
)

// SyncPolicy says when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs at every sync point (once per publish group) —
	// an epoch receipt then guarantees the batch survives a crash.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most once per Interval; receipts issued
	// between fsyncs guarantee visibility but not durability.
	SyncInterval
	// SyncNever leaves flushing to the operating system.
	SyncNever
)

// String returns the policy's flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses "always", "never" or "interval:<duration>".
func ParseSyncPolicy(s string) (SyncPolicy, time.Duration, error) {
	switch {
	case s == "" || s == "always":
		return SyncAlways, 0, nil
	case s == "never":
		return SyncNever, 0, nil
	case len(s) > len("interval:") && s[:len("interval:")] == "interval:":
		d, err := time.ParseDuration(s[len("interval:"):])
		if err != nil || d <= 0 {
			return 0, 0, fmt.Errorf("wal: bad fsync interval %q", s)
		}
		return SyncInterval, d, nil
	default:
		return 0, 0, fmt.Errorf("wal: bad fsync policy %q (want always|never|interval:<dur>)", s)
	}
}

// Options configures a Log.
type Options struct {
	Policy   SyncPolicy
	Interval time.Duration // for SyncInterval
}

const (
	recBatch byte = 'B'
	recEpoch byte = 'E'

	headerBytes = 8 // u32 length + u32 crc
	updateBytes = 13
	// maxPayload guards replay against garbage lengths.
	maxPayload = 64 << 20
)

// ErrBroken is returned by appends after an earlier failure left the
// log's tail state unknown; the owner must stop acknowledging writes.
var ErrBroken = errors.New("wal: log broken by earlier write failure")

// Batch is one decoded mutation batch record.
type Batch struct {
	// Seq is the batch's sequence number in the graph's mutation
	// history (1-based, assigned at apply time).
	Seq uint64
	// AddVertices grows the vertex space before Updates apply.
	AddVertices int
	// Updates is the edge batch.
	Updates []dynamic.Update
}

// Log is an append-only mutation log for one mutable snapshot. It is
// not safe for concurrent use; graphd's single refresher goroutine is
// the only writer by construction.
type Log struct {
	f        *os.File
	path     string
	off      int64 // logical end: offset after the last good record
	policy   SyncPolicy
	interval time.Duration
	lastSync time.Time
	dirty    bool
	broken   bool
	fsyncs   int // fsyncs issued, read by the sync policy tests
	scratch  []byte
}

// Open opens (creating if needed) the log at path for appending,
// truncating it to startOff first — the good-prefix length a prior
// Replay reported, so a torn tail is physically dropped before new
// records land after it.
func Open(path string, startOff int64, opts Options) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, err
	}
	if startOff < 0 || startOff > size {
		startOff = size
	}
	if startOff < size {
		if err := f.Truncate(startOff); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(startOff, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{
		f:        f,
		path:     path,
		off:      startOff,
		policy:   opts.Policy,
		interval: opts.Interval,
		lastSync: time.Now(),
	}, nil
}

// Offset returns the logical end of the log — the rewind target to pass
// back if work appended after this point must be rolled back.
func (l *Log) Offset() int64 { return l.off }

// Size returns the log's current byte length (same as Offset; the file
// never holds bytes past the last good record while the log is open).
func (l *Log) Size() int64 { return l.off }

// appendRecord frames payload and writes it at the current offset. The
// "wal.append" point injects write errors; the "wal.torn" point makes
// the write stop short by the armed Value bytes and reports a write
// failure, simulating a crash mid-record.
func (l *Log) appendRecord(payload []byte) error {
	if l.broken {
		return ErrBroken
	}
	if err := faultinject.Fire("wal.append"); err != nil {
		return err
	}
	rec := l.scratch[:0]
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	rec = append(rec, hdr[:]...)
	rec = append(rec, payload...)
	l.scratch = rec[:0]

	if f, ok := faultinject.Armed("wal.torn"); ok {
		drop := int(f.Value)
		if drop <= 0 || drop > len(rec) {
			drop = len(rec) / 2
		}
		// Write the torn prefix and leave it on disk: from here on the
		// log behaves as if the process died mid-write.
		l.f.Write(rec[:len(rec)-drop])
		l.f.Sync()
		l.broken = true
		return fmt.Errorf("%w: torn write", faultinject.ErrInjected)
	}

	n, err := l.f.Write(rec)
	if err != nil {
		// A partial write leaves an undefined tail; rewind to the last
		// good record so the next open replays cleanly, and refuse
		// further appends if even that fails.
		if n > 0 {
			if terr := l.f.Truncate(l.off); terr != nil {
				l.broken = true
			} else {
				l.f.Seek(l.off, io.SeekStart)
			}
		}
		return err
	}
	l.off += int64(len(rec))
	l.dirty = true
	return nil
}

// AppendBatch appends one mutation batch record. It returns the offset
// the log had before the append — the rewind target if applying the
// batch to the in-memory graph subsequently fails.
func (l *Log) AppendBatch(seq uint64, addVertices int, updates []dynamic.Update) (int64, error) {
	prev := l.off
	payload := make([]byte, 0, 17+len(updates)*updateBytes)
	payload = append(payload, recBatch)
	payload = binary.LittleEndian.AppendUint64(payload, seq)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(addVertices))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(updates)))
	for _, u := range updates {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(u.Edge.Src))
		payload = binary.LittleEndian.AppendUint32(payload, uint32(u.Edge.Dst))
		payload = binary.LittleEndian.AppendUint32(payload, u.Edge.Weight)
		var flags byte
		if u.Remove {
			flags = 1
		}
		payload = append(payload, flags)
	}
	if err := l.appendRecord(payload); err != nil {
		return prev, err
	}
	return prev, nil
}

// AppendEpoch appends an epoch record: every receipt issued so far
// carries an epoch <= this one, so recovery can restore the epoch
// counter past anything a client may hold.
func (l *Log) AppendEpoch(epoch uint64) error {
	payload := make([]byte, 0, 9)
	payload = append(payload, recEpoch)
	payload = binary.LittleEndian.AppendUint64(payload, epoch)
	return l.appendRecord(payload)
}

// Sync fsyncs pending records unconditionally. The
// "wal.crash-before-fsync" and "wal.crash-after-fsync" points let tests
// simulate a crash on either side of the durability boundary.
func (l *Log) Sync() error {
	if l.broken {
		return ErrBroken
	}
	if !l.dirty {
		return nil
	}
	if err := faultinject.Fire("wal.crash-before-fsync"); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	l.lastSync = time.Now()
	l.fsyncs++
	if err := faultinject.Fire("wal.crash-after-fsync"); err != nil {
		return err
	}
	return nil
}

// MaybeSync applies the configured fsync policy: always syncs, syncs if
// the interval elapsed, or does nothing.
func (l *Log) MaybeSync() error {
	switch l.policy {
	case SyncAlways:
		return l.Sync()
	case SyncInterval:
		if time.Since(l.lastSync) >= l.interval {
			return l.Sync()
		}
	}
	return nil
}

// Synced reports whether every appended record has been fsynced — what
// separates a receipt's durability guarantee from mere visibility.
func (l *Log) Synced() bool { return !l.dirty && !l.broken }

// Rewind truncates the log back to off, dropping records appended after
// it (a failed apply or a rolled-back publish group).
func (l *Log) Rewind(off int64) error {
	if l.broken {
		return ErrBroken
	}
	if off < 0 || off > l.off {
		return fmt.Errorf("wal: rewind to %d outside log [0,%d]", off, l.off)
	}
	if off == l.off {
		return nil
	}
	if err := l.f.Truncate(off); err != nil {
		l.broken = true
		return err
	}
	if _, err := l.f.Seek(off, io.SeekStart); err != nil {
		l.broken = true
		return err
	}
	l.off = off
	l.dirty = true
	return nil
}

// Reset empties the log — the checkpoint truncation: everything before
// this point is covered by a persisted snapshot.
func (l *Log) Reset() error {
	if err := l.Rewind(0); err != nil {
		return err
	}
	return l.Sync()
}

// Close flushes and closes the log. A clean shutdown calls Sync first
// via the owner's drain path; Close syncs again defensively.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	var err error
	if !l.broken && l.dirty {
		err = l.Sync()
	}
	cerr := l.f.Close()
	l.f = nil
	if err == nil {
		err = cerr
	}
	return err
}

// Abandon closes the file descriptor without flushing — the simulated
// crash used by chaos testing. Whatever reached the OS stays; anything
// else is lost, exactly as in a real kill.
func (l *Log) Abandon() {
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
}

// ReplayResult is what a recovery scan found.
type ReplayResult struct {
	// Batches are the decoded batch records, in append order, with
	// Seq > the afterSeq floor passed to Replay.
	Batches []Batch
	// LastEpoch is the highest epoch record seen (0 if none).
	LastEpoch uint64
	// GoodOffset is the byte length of the valid record prefix — pass
	// it to Open so the torn tail is physically dropped.
	GoodOffset int64
	// Torn reports whether a torn or corrupt tail was dropped.
	Torn bool
	// Records counts valid records scanned (including skipped ones).
	Records int
}

// Replay scans the log at path and decodes every valid record, stopping
// at the first short, oversized or CRC-mismatched record (the torn
// tail). Batch records with Seq <= afterSeq are counted but not
// returned: they are covered by the checkpoint the caller is replaying
// on top of. A missing file is an empty log, not an error.
func Replay(path string, afterSeq uint64) (ReplayResult, error) {
	var res ReplayResult
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return res, nil
	}
	if err != nil {
		return res, err
	}
	defer f.Close()

	var hdr [headerBytes]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			// Clean EOF ends the scan; a partial header is a torn tail.
			res.Torn = res.Torn || errors.Is(err, io.ErrUnexpectedEOF)
			return res, nil
		}
		length := binary.LittleEndian.Uint32(hdr[0:])
		want := binary.LittleEndian.Uint32(hdr[4:])
		if length == 0 || length > maxPayload {
			res.Torn = true
			return res, nil
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(f, payload); err != nil {
			res.Torn = true
			return res, nil
		}
		if crc32.ChecksumIEEE(payload) != want {
			res.Torn = true
			return res, nil
		}
		b, epoch, err := decodePayload(payload)
		if err != nil {
			res.Torn = true
			return res, nil
		}
		res.Records++
		res.GoodOffset += int64(headerBytes) + int64(length)
		switch {
		case b != nil:
			if b.Seq > afterSeq {
				res.Batches = append(res.Batches, *b)
			}
		case epoch > res.LastEpoch:
			res.LastEpoch = epoch
		}
	}
}

// decodePayload decodes one validated record payload into either a
// batch or an epoch value.
func decodePayload(p []byte) (*Batch, uint64, error) {
	switch p[0] {
	case recEpoch:
		if len(p) != 9 {
			return nil, 0, errors.New("wal: bad epoch record size")
		}
		return nil, binary.LittleEndian.Uint64(p[1:]), nil
	case recBatch:
		if len(p) < 17 {
			return nil, 0, errors.New("wal: short batch record")
		}
		b := &Batch{
			Seq:         binary.LittleEndian.Uint64(p[1:]),
			AddVertices: int(binary.LittleEndian.Uint32(p[9:])),
		}
		count := int(binary.LittleEndian.Uint32(p[13:]))
		if len(p) != 17+count*updateBytes {
			return nil, 0, errors.New("wal: batch record size mismatch")
		}
		b.Updates = make([]dynamic.Update, count)
		for i := 0; i < count; i++ {
			rec := p[17+i*updateBytes:]
			b.Updates[i] = dynamic.Update{
				Edge: graph.Edge{
					Src:    graph.VertexID(binary.LittleEndian.Uint32(rec[0:])),
					Dst:    graph.VertexID(binary.LittleEndian.Uint32(rec[4:])),
					Weight: binary.LittleEndian.Uint32(rec[8:]),
				},
				Remove: rec[12]&1 != 0,
			}
		}
		return b, 0, nil
	default:
		return nil, 0, fmt.Errorf("wal: unknown record type %q", p[0])
	}
}
