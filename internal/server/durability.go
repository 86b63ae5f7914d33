package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"graphreorder/internal/dynamic"
	"graphreorder/internal/graph"
	"graphreorder/internal/wal"
)

// Crash-safety for mutable snapshots. With a durability directory
// configured, every mutable snapshot keeps two files there:
//
//	<name>.ckpt — the last persisted checkpoint: the graph in original
//	              vertex order (binary codec) plus the epoch floor and
//	              batch count at checkpoint time, guarded by a trailing
//	              whole-file CRC32 and written via temp-file + rename so
//	              a crash mid-write leaves the previous checkpoint.
//	<name>.wal  — the mutation log since that checkpoint (internal/wal).
//
// The refresher appends each accepted batch to the WAL before applying
// it, appends the publish's epoch after the hot-swap, fsyncs per
// policy, and rewrites the checkpoint (truncating the WAL) every
// CheckpointEvery publishes. Building a mutable name that is not
// currently live replays checkpoint + log, so a crashed or restarted
// graphd resumes with every durable batch and an epoch counter past
// every receipt it ever issued.

// Durability configures crash-safety for mutable snapshots. The zero
// value (empty Dir) disables it.
type Durability struct {
	// Dir holds the per-snapshot checkpoint and WAL files.
	Dir string
	// Fsync is the WAL fsync policy (default wal.SyncAlways); Interval
	// applies when the policy is wal.SyncInterval.
	Fsync    wal.SyncPolicy
	Interval time.Duration
	// CheckpointEvery is how many publishes elapse between checkpoint
	// rewrites (default 1: checkpoint on every publish, keeping the WAL
	// nearly empty; raise it to amortize checkpoint cost on busy graphs
	// at the price of longer replay).
	CheckpointEvery int
}

// durability is the store-side state behind a Durability config.
type durability struct {
	cfg        Durability
	replayUs   atomic.Uint64 // cumulative WAL replay time, microseconds
	replayed   atomic.Uint64 // WAL batch records applied during recoveries
	recoveries atomic.Uint64 // successful checkpoint+WAL recoveries
	ckptWrites atomic.Uint64
}

// SetDurability enables crash-safety for mutable snapshots built
// afterwards, creating the directory if needed. Call before Build.
func (st *Store) SetDurability(cfg Durability) error {
	if cfg.Dir == "" {
		st.durable = nil
		return nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("server: durability dir: %w", err)
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 1
	}
	st.durable = &durability{cfg: cfg}
	return nil
}

// durableBase maps a snapshot name to a filesystem-safe file stem
// (percent-encoding anything outside [A-Za-z0-9_.-]).
func durableBase(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '.':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02x", c)
		}
	}
	return b.String()
}

func (d *durability) walPath(name string) string {
	return filepath.Join(d.cfg.Dir, durableBase(name)+".wal")
}

func (d *durability) ckptPath(name string) string {
	return filepath.Join(d.cfg.Dir, durableBase(name)+".ckpt")
}

// removeDurable deletes a dropped snapshot's durable files so a later
// build of the same name starts fresh instead of resurrecting it.
func (st *Store) removeDurable(name string) {
	d := st.durable
	if d == nil {
		return
	}
	os.Remove(d.walPath(name))
	os.Remove(d.ckptPath(name))
}

// Checkpoint file format (little-endian):
//
//	u32 magic "GRCK" | u32 version | u64 epochFloor | u64 batches |
//	u16 len(source) | source bytes | graph (graph.WriteBinary) |
//	u32 CRC32 of everything preceding
const (
	ckptMagic   = 0x4752434b // "GRCK"
	ckptVersion = 1
)

var errCkptCorrupt = errors.New("server: checkpoint corrupt")

type checkpoint struct {
	epochFloor uint64
	batches    uint64
	source     string
	graph      *graph.Graph
}

// writeCheckpoint persists ck atomically: temp file, fsync, rename.
func writeCheckpoint(path string, ck checkpoint) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	h := crc32.NewIEEE()
	w := io.MultiWriter(f, h)
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], ckptMagic)
	binary.LittleEndian.PutUint32(hdr[4:], ckptVersion)
	binary.LittleEndian.PutUint64(hdr[8:], ck.epochFloor)
	binary.LittleEndian.PutUint64(hdr[16:], ck.batches)
	err = func() error {
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		if len(ck.source) > 0xffff {
			ck.source = ck.source[:0xffff]
		}
		var sl [2]byte
		binary.LittleEndian.PutUint16(sl[:], uint16(len(ck.source)))
		if _, err := w.Write(sl[:]); err != nil {
			return err
		}
		if _, err := io.WriteString(w, ck.source); err != nil {
			return err
		}
		if err := graph.WriteBinary(w, ck.graph); err != nil {
			return err
		}
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], h.Sum32())
		if _, err := f.Write(crc[:]); err != nil {
			return err
		}
		return f.Sync()
	}()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// readCheckpoint loads and verifies a checkpoint. A missing file
// returns os.ErrNotExist; any damage returns errCkptCorrupt.
func readCheckpoint(path string) (checkpoint, error) {
	var ck checkpoint
	data, err := os.ReadFile(path)
	if err != nil {
		return ck, err
	}
	if len(data) < 24+2+4 {
		return ck, errCkptCorrupt
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return ck, fmt.Errorf("%w: checksum mismatch", errCkptCorrupt)
	}
	if binary.LittleEndian.Uint32(body[0:]) != ckptMagic ||
		binary.LittleEndian.Uint32(body[4:]) != ckptVersion {
		return ck, fmt.Errorf("%w: bad magic/version", errCkptCorrupt)
	}
	ck.epochFloor = binary.LittleEndian.Uint64(body[8:])
	ck.batches = binary.LittleEndian.Uint64(body[16:])
	slen := int(binary.LittleEndian.Uint16(body[24:]))
	if len(body) < 26+slen {
		return ck, errCkptCorrupt
	}
	ck.source = string(body[26 : 26+slen])
	g, err := graph.ReadBinary(bytes.NewReader(body[26+slen:]))
	if err != nil {
		return ck, fmt.Errorf("%w: %v", errCkptCorrupt, err)
	}
	ck.graph = g
	return ck, nil
}

// recoveredState is what recoverDurable reconstructed from disk.
type recoveredState struct {
	// base is the recovered graph in original vertex order, with every
	// durable WAL batch applied on top of the checkpoint.
	base *graph.Graph
	// batches is the mutation-history position base corresponds to (the
	// last applied batch's sequence number).
	batches uint64
	// epochFloor is past every epoch any durable receipt can carry.
	epochFloor uint64
	source     string
	replayed   int  // WAL batch records applied on top of the checkpoint
	torn       bool // a torn/corrupt WAL tail was dropped
}

// recoverDurable rebuilds a mutable snapshot's last durable state from
// its checkpoint and WAL. It returns nil when there is nothing durable
// to recover (no checkpoint, or one too damaged to trust) — the caller
// then builds fresh from the spec.
func (st *Store) recoverDurable(name string) *recoveredState {
	d := st.durable
	if d == nil {
		return nil
	}
	start := time.Now()
	ck, err := readCheckpoint(d.ckptPath(name))
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			st.logger.Warn("checkpoint unusable, building fresh", "snapshot", name, "err", err)
		}
		return nil
	}
	res, err := wal.Replay(d.walPath(name), ck.batches)
	if err != nil {
		st.logger.Warn("WAL unreadable, recovering checkpoint only", "snapshot", name, "err", err)
		res = wal.ReplayResult{}
	}
	dyn := dynamic.FromGraph(ck.graph)
	rec := &recoveredState{
		batches:    ck.batches,
		epochFloor: ck.epochFloor,
		source:     ck.source,
		torn:       res.Torn,
	}
	for _, b := range res.Batches {
		if _, err := dyn.ApplyGrow(b.AddVertices, b.Updates); err != nil {
			// A batch that no longer applies means log and checkpoint
			// diverged; everything after it is untrustworthy.
			st.logger.Warn("WAL batch does not apply, stopping replay",
				"snapshot", name, "batch", b.Seq, "err", err)
			rec.torn = true
			break
		}
		rec.batches = b.Seq
		rec.replayed++
	}
	base, err := dyn.Snapshot()
	if err != nil {
		st.logger.Warn("recovered state unusable, building fresh", "snapshot", name, "err", err)
		return nil
	}
	rec.base = base
	if res.LastEpoch > rec.epochFloor {
		rec.epochFloor = res.LastEpoch
	}
	d.replayUs.Add(uint64(time.Since(start).Microseconds()))
	d.replayed.Add(uint64(rec.replayed))
	d.recoveries.Add(1)
	st.logger.Info("recovered durable state",
		"snapshot", name, "batches", rec.batches, "replayed", rec.replayed,
		"torn", rec.torn, "ms", float64(time.Since(start).Microseconds())/1000)
	return rec
}

// bumpEpochFloor advances the epoch counter to at least floor, so every
// epoch issued after recovery exceeds every receipt issued before it.
func (st *Store) bumpEpochFloor(floor uint64) {
	for {
		cur := st.nextID.Load()
		if cur >= floor || st.nextID.CompareAndSwap(cur, floor) {
			return
		}
	}
}

// durableLog is one live graph's handle on its durable files; owned by
// the refresher goroutine (and newLiveGraph before the refresher
// starts).
type durableLog struct {
	d           *durability
	name        string
	log         *wal.Log
	sinceCkpt   int
	lastGoodOff int64 // WAL offset at the last good publish (liveGraph.mark's)
}

// openDurableLog sets up a live graph's durable state. For a fresh
// build it removes any stale files; in both cases it writes an initial
// checkpoint of the starting state and truncates the WAL, so the disk
// agrees with memory from the first moment. A checkpoint failure is
// logged, never fatal: for a recovered graph the old checkpoint + WAL
// still describe the same state, and for a fresh one the stale files
// were already removed.
func (st *Store) openDurableLog(name string, dyn *dynamic.Graph, source string, fresh bool) *durableLog {
	d := st.durable
	if d == nil {
		return nil
	}
	if fresh {
		st.removeDurable(name)
	}
	l, err := wal.Open(d.walPath(name), -1, wal.Options{
		Policy:   d.cfg.Fsync,
		Interval: d.cfg.Interval,
	})
	if err != nil {
		st.logger.Error("WAL unavailable, running without durability", "snapshot", name, "err", err)
		return nil
	}
	dl := &durableLog{d: d, name: name, log: l}
	if err := dl.writeCheckpoint(st, dyn, source); err != nil {
		st.logger.Warn("initial checkpoint failed", "snapshot", name, "err", err)
	}
	dl.lastGoodOff = dl.log.Offset()
	return dl
}

// writeCheckpoint persists the current state and truncates the WAL.
func (dl *durableLog) writeCheckpoint(st *Store, dyn *dynamic.Graph, source string) error {
	g, err := dyn.Snapshot()
	if err != nil {
		return err
	}
	ck := checkpoint{
		epochFloor: st.nextID.Load(),
		batches:    uint64(dyn.Batches()),
		source:     source,
		graph:      g,
	}
	if err := writeCheckpoint(dl.d.ckptPath(dl.name), ck); err != nil {
		return err
	}
	dl.d.ckptWrites.Add(1)
	dl.sinceCkpt = 0
	if err := dl.log.Reset(); err != nil {
		return err
	}
	return nil
}

// commit makes one publish group durable: the epoch record seals the
// batches appended before it, the fsync (per policy) makes the group
// crash-proof, and every CheckpointEvery-th publish folds the WAL into
// a fresh checkpoint. The returned error means durability is unknown
// and the group's receipts must not be issued; checkpoint trouble alone
// is not such an error (the WAL still covers everything).
func (dl *durableLog) commit(st *Store, epoch uint64, dyn *dynamic.Graph, source string) error {
	if err := dl.log.AppendEpoch(epoch); err != nil {
		return err
	}
	if err := dl.log.MaybeSync(); err != nil {
		return err
	}
	dl.sinceCkpt++
	if dl.sinceCkpt >= dl.d.cfg.CheckpointEvery {
		if err := dl.writeCheckpoint(st, dyn, source); err != nil {
			st.logger.Warn("checkpoint failed (WAL retained)", "snapshot", dl.name, "err", err)
		}
	}
	return nil
}

// finalize is the graceful-shutdown path: fold everything into a final
// checkpoint so a clean stop never relies on replay, then close.
func (dl *durableLog) finalize(st *Store, dyn *dynamic.Graph, source string) {
	if err := dl.writeCheckpoint(st, dyn, source); err != nil {
		st.logger.Warn("shutdown checkpoint failed (WAL retained)", "snapshot", dl.name, "err", err)
		// Leave the WAL: checkpoint + WAL still reconstruct this state.
	}
	if err := dl.log.Close(); err != nil {
		st.logger.Warn("WAL close failed", "snapshot", dl.name, "err", err)
	}
}

// abandon is the simulated-crash path: drop the file handle without
// flushing, exactly like a kill would.
func (dl *durableLog) abandon() { dl.log.Abandon() }

// WALStats reports crash recovery and checkpointing for /metrics.
type WALStats struct {
	// ReplayMs is cumulative recovery replay time; ReplayedBatches counts
	// WAL batch records applied on top of checkpoints during recoveries;
	// Recoveries counts successful checkpoint+WAL recoveries.
	ReplayMs        float64 `json:"replay_ms"`
	ReplayedBatches uint64  `json:"replayed_batches"`
	Recoveries      uint64  `json:"recoveries"`
	Checkpoints     uint64  `json:"checkpoints"`
}

// WALStatsReport returns the store's WAL counters (zero when
// durability is off).
func (st *Store) WALStatsReport() WALStats {
	d := st.durable
	if d == nil {
		return WALStats{}
	}
	return WALStats{
		ReplayMs:        float64(d.replayUs.Load()) / 1000,
		ReplayedBatches: d.replayed.Load(),
		Recoveries:      d.recoveries.Load(),
		Checkpoints:     d.ckptWrites.Load(),
	}
}
