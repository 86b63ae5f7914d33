package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"graphreorder/internal/dynamic"
	"graphreorder/internal/faultinject"
	"graphreorder/internal/graph"
)

func upd(src, dst graph.VertexID, w uint32, remove bool) dynamic.Update {
	return dynamic.Update{Edge: graph.Edge{Src: src, Dst: dst, Weight: w}, Remove: remove}
}

// writeBatches appends n batches (and one epoch record per batch) to a
// fresh log at path and returns the batches written.
func writeBatches(t *testing.T, path string, n int) []Batch {
	t.Helper()
	l, err := Open(path, -1, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	var out []Batch
	for i := 0; i < n; i++ {
		b := Batch{
			Seq:         uint64(i + 1),
			AddVertices: i % 2,
			Updates: []dynamic.Update{
				upd(graph.VertexID(i), graph.VertexID(i+1), uint32(10+i), false),
				upd(graph.VertexID(i+1), graph.VertexID(i), 1, i%3 == 0),
			},
		}
		if _, err := l.AppendBatch(b.Seq, b.AddVertices, b.Updates); err != nil {
			t.Fatalf("AppendBatch %d: %v", i, err)
		}
		if err := l.AppendEpoch(uint64(100 + i)); err != nil {
			t.Fatalf("AppendEpoch %d: %v", i, err)
		}
		if err := l.MaybeSync(); err != nil {
			t.Fatalf("MaybeSync %d: %v", i, err)
		}
		out = append(out, b)
	}
	return out
}

func sameBatch(a, b Batch) bool {
	if a.Seq != b.Seq || a.AddVertices != b.AddVertices || len(a.Updates) != len(b.Updates) {
		return false
	}
	for i := range a.Updates {
		if a.Updates[i] != b.Updates[i] {
			return false
		}
	}
	return true
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	want := writeBatches(t, path, 5)
	res, err := Replay(path, 0)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if res.Torn {
		t.Fatal("clean log reported torn")
	}
	if len(res.Batches) != len(want) {
		t.Fatalf("got %d batches, want %d", len(res.Batches), len(want))
	}
	for i := range want {
		if !sameBatch(res.Batches[i], want[i]) {
			t.Fatalf("batch %d mismatch: %+v vs %+v", i, res.Batches[i], want[i])
		}
	}
	if res.LastEpoch != 104 {
		t.Fatalf("LastEpoch = %d, want 104", res.LastEpoch)
	}
	if fi, _ := os.Stat(path); fi.Size() != res.GoodOffset {
		t.Fatalf("GoodOffset %d != file size %d", res.GoodOffset, fi.Size())
	}
}

func TestReplaySkipsCheckpointedSeqs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	writeBatches(t, path, 6)
	res, err := Replay(path, 4)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(res.Batches) != 2 || res.Batches[0].Seq != 5 || res.Batches[1].Seq != 6 {
		t.Fatalf("afterSeq filter wrong: %+v", res.Batches)
	}
	// Skipped records still count toward the good prefix.
	if fi, _ := os.Stat(path); fi.Size() != res.GoodOffset {
		t.Fatalf("GoodOffset %d != file size %d", res.GoodOffset, fi.Size())
	}
}

// TestCorruptionRecovery is the satellite table: torn final record (via
// the faultinject torn-write hook), a bit-flipped CRC mid-log, an empty
// file and a missing file all recover to the longest good prefix.
func TestCorruptionRecovery(t *testing.T) {
	cases := []struct {
		name        string
		setup       func(t *testing.T, path string)
		wantBatches int
		wantTorn    bool
		wantEpoch   uint64
	}{
		{
			name: "torn-final-record",
			setup: func(t *testing.T, path string) {
				writeBatches(t, path, 3)
				// Arm the torn-write hook for the 4th batch: the
				// record's last 5 bytes never reach disk.
				l, err := Open(path, -1, Options{Policy: SyncAlways})
				if err != nil {
					t.Fatal(err)
				}
				defer l.Abandon()
				faultinject.Enable("wal.torn", faultinject.Fault{Value: 5})
				t.Cleanup(faultinject.Reset)
				_, err = l.AppendBatch(4, 0, []dynamic.Update{upd(9, 9, 1, false)})
				if !errors.Is(err, faultinject.ErrInjected) {
					t.Fatalf("torn append err = %v", err)
				}
			},
			wantBatches: 3,
			wantTorn:    true,
			wantEpoch:   102,
		},
		{
			name: "bit-flipped-crc-mid-log",
			setup: func(t *testing.T, path string) {
				writeBatches(t, path, 4)
				// Corrupt the CRC of the second record (first epoch
				// record): replay must stop after record 1.
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				first := headerBytes + int(binary.LittleEndian.Uint32(data[0:]))
				data[first+4] ^= 0x40
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantBatches: 1,
			wantTorn:    true,
			wantEpoch:   0,
		},
		{
			name: "empty-wal",
			setup: func(t *testing.T, path string) {
				if err := os.WriteFile(path, nil, 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name:  "missing-wal",
			setup: func(t *testing.T, path string) {},
		},
		{
			name: "garbage-length-tail",
			setup: func(t *testing.T, path string) {
				writeBatches(t, path, 2)
				f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				f.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4})
				f.Close()
			},
			wantBatches: 2,
			wantTorn:    true,
			wantEpoch:   101,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "w.wal")
			tc.setup(t, path)
			res, err := Replay(path, 0)
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if len(res.Batches) != tc.wantBatches {
				t.Fatalf("batches = %d, want %d", len(res.Batches), tc.wantBatches)
			}
			if res.Torn != tc.wantTorn {
				t.Fatalf("Torn = %v, want %v", res.Torn, tc.wantTorn)
			}
			if res.LastEpoch != tc.wantEpoch {
				t.Fatalf("LastEpoch = %d, want %d", res.LastEpoch, tc.wantEpoch)
			}

			// Reopening at GoodOffset drops the bad tail; appending and
			// replaying again must see old good batches plus the new one.
			l, err := Open(path, res.GoodOffset, Options{Policy: SyncAlways})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if _, err := l.AppendBatch(900, 0, []dynamic.Update{upd(1, 2, 3, false)}); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			res2, err := Replay(path, 0)
			if err != nil {
				t.Fatalf("second Replay: %v", err)
			}
			if res2.Torn {
				t.Fatal("log still torn after truncating reopen")
			}
			if len(res2.Batches) != tc.wantBatches+1 {
				t.Fatalf("after recovery append: %d batches, want %d", len(res2.Batches), tc.wantBatches+1)
			}
			if last := res2.Batches[len(res2.Batches)-1]; last.Seq != 900 {
				t.Fatalf("appended batch seq = %d", last.Seq)
			}
		})
	}
}

func TestRewindDropsRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	l, err := Open(path, -1, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.AppendBatch(1, 0, []dynamic.Update{upd(0, 1, 1, false)}); err != nil {
		t.Fatal(err)
	}
	off, err := l.AppendBatch(2, 0, []dynamic.Update{upd(1, 2, 1, false)})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Rewind(off); err != nil {
		t.Fatalf("Rewind: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	res, err := Replay(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 1 || res.Batches[0].Seq != 1 {
		t.Fatalf("rewind left %+v", res.Batches)
	}
}

func TestResetEmptiesLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	writeBatches(t, path, 3)
	l, err := Open(path, -1, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if l.Size() != 0 {
		t.Fatalf("Size = %d after Reset", l.Size())
	}
	res, err := Replay(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 0 || res.LastEpoch != 0 {
		t.Fatalf("Reset left %+v", res)
	}
}

func TestSyncPolicies(t *testing.T) {
	t.Run("never", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "w.wal")
		l, err := Open(path, -1, Options{Policy: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if _, err := l.AppendBatch(1, 0, nil); err != nil {
			t.Fatal(err)
		}
		if err := l.MaybeSync(); err != nil {
			t.Fatal(err)
		}
		if got := l.fsyncs; got != 0 {
			t.Fatalf("SyncNever fsynced %d times", got)
		}
		if l.Synced() {
			t.Fatal("dirty log reported synced")
		}
	})
	t.Run("always", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "w.wal")
		l, err := Open(path, -1, Options{Policy: SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if _, err := l.AppendBatch(1, 0, nil); err != nil {
			t.Fatal(err)
		}
		if err := l.MaybeSync(); err != nil {
			t.Fatal(err)
		}
		if got := l.fsyncs; got != 1 {
			t.Fatalf("fsyncs = %d, want 1", got)
		}
		if !l.Synced() {
			t.Fatal("synced log reported dirty")
		}
	})
}

func TestCrashBeforeFsyncPoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	l, err := Open(path, -1, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.AppendBatch(1, 0, nil); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable("wal.crash-before-fsync", faultinject.Fault{})
	t.Cleanup(faultinject.Reset)
	if err := l.Sync(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Sync = %v, want injected", err)
	}
	if l.Synced() {
		t.Fatal("failed sync must leave log dirty")
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("retry Sync: %v", err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in     string
		policy SyncPolicy
		ok     bool
	}{
		{"always", SyncAlways, true},
		{"", SyncAlways, true},
		{"never", SyncNever, true},
		{"interval:50ms", SyncInterval, true},
		{"interval:nope", 0, false},
		{"sometimes", 0, false},
	}
	for _, tc := range cases {
		p, _, err := ParseSyncPolicy(tc.in)
		if (err == nil) != tc.ok {
			t.Fatalf("ParseSyncPolicy(%q) err = %v", tc.in, err)
		}
		if err == nil && p != tc.policy {
			t.Fatalf("ParseSyncPolicy(%q) = %v", tc.in, p)
		}
	}
}
