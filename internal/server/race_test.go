package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// snapExpectation is what a complete snapshot must look like from the
// outside: its dimensions and the exact precomputed rank of vertex 0.
// Torn state — a response mixing fields of two snapshots — would show up
// as an epoch whose reported n/m/rank do not match what was published
// under that epoch.
type snapExpectation struct {
	name     string
	vertices int
	edges    int
	rank0    float64
}

// hotSwapMeta is what TestConcurrentQueriesDuringHotSwap reads off a reply.
type hotSwapMeta struct {
	Snapshot string  `json:"snapshot"`
	Epoch    uint64  `json:"epoch"`
	Vertices int     `json:"vertices"`
	Edges    int     `json:"edges"`
	Rank     float64 `json:"rank"`
	Vertex   *uint32 `json:"vertex"`
}

// TestConcurrentQueriesDuringHotSwap hammers the query endpoints from
// many goroutines while snapshots are rebuilt and hot-swapped
// underneath them. Run under -race this doubles as the data-race proof.
// Every response must be HTTP 200 and internally consistent with the
// single published snapshot its epoch names.
func TestConcurrentQueriesDuringHotSwap(t *testing.T) {
	s := New(Config{Workers: 1, QueryTimeout: 30 * time.Second})
	h := s.Handler()

	expectMu := sync.Mutex{}
	expected := map[uint64]snapExpectation{}
	record := func(snap *Snapshot) {
		expectMu.Lock()
		expected[snap.epoch] = snapExpectation{
			name:     snap.name,
			vertices: snap.graph.NumVertices(),
			edges:    snap.graph.NumEdges(),
			rank0:    snap.ranks[0],
		}
		expectMu.Unlock()
	}

	// Two differently-shaped datasets so a torn read cannot accidentally
	// look consistent, each under two orderings.
	specs := []BuildSpec{
		{Name: "a", Dataset: "uni", Scale: "tiny", Technique: "original"},
		{Name: "b", Dataset: "kr", Scale: "tiny", Technique: "dbg"},
	}
	for _, spec := range specs {
		snap, err := s.store.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		record(snap)
	}

	const clients = 8
	const duration = 800 * time.Millisecond
	stop := make(chan struct{})
	var failures atomic.Uint64
	var responses atomic.Uint64
	errCh := make(chan string, clients*4)
	reportErr := func(format string, args ...any) {
		failures.Add(1)
		select {
		case errCh <- fmt.Sprintf(format, args...):
		default:
		}
	}

	// check validates one reply against the snapshot its epoch names;
	// false means that epoch has not been recorded (yet).
	check := func(c int, url string, meta hotSwapMeta) bool {
		expectMu.Lock()
		want, ok := expected[meta.Epoch]
		expectMu.Unlock()
		if !ok {
			return false
		}
		if meta.Snapshot != want.name || meta.Vertices != want.vertices || meta.Edges != want.edges {
			reportErr("client %d: torn response from %s: got %s/%d/%d, epoch %d was published as %s/%d/%d",
				c, url, meta.Snapshot, meta.Vertices, meta.Edges, meta.Epoch,
				want.name, want.vertices, want.edges)
		} else if meta.Vertex != nil && *meta.Vertex == 0 && meta.Rank != 0 && meta.Rank != want.rank0 {
			reportErr("client %d: rank of v0 from epoch %d is %v, precomputed %v",
				c, meta.Epoch, meta.Rank, want.rank0)
		}
		return true
	}
	type lateReply struct {
		c    int
		url  string
		meta hotSwapMeta
	}
	var lateMu sync.Mutex
	var late []lateReply

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			paths := []string{
				"/v1/query/rank?v=0",
				"/v1/query/neighbors?v=0",
				"/v1/query/topk?k=3",
				"/v1/query/degree?v=0&kind=total",
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				url := paths[i%len(paths)]
				req := httptest.NewRequest("GET", url, nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				responses.Add(1)
				if rec.Code != 200 {
					reportErr("client %d: GET %s -> %d %s", c, url, rec.Code, rec.Body.String())
					continue
				}
				var meta hotSwapMeta
				if err := json.Unmarshal(rec.Body.Bytes(), &meta); err != nil {
					reportErr("client %d: bad JSON from %s: %v", c, url, err)
					continue
				}
				if !check(c, url, meta) {
					// Build publishes an epoch before the rebuilder gets to
					// record it: judge this reply once everyone has stopped.
					lateMu.Lock()
					late = append(late, lateReply{c, url, meta})
					lateMu.Unlock()
				}
			}
		}(c)
	}

	// Swapper: alternate the current snapshot as fast as possible.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.store.Activate(specs[i%len(specs)].Name); err != nil {
				reportErr("swap: %v", err)
			}
		}
	}()

	// Rebuilder: republish fresh epochs under the live names, so queries
	// also race against table replacement (not only current-pointer flips).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			snap, err := s.store.Build(specs[i%len(specs)])
			if err != nil {
				reportErr("rebuild: %v", err)
				continue
			}
			record(snap)
		}
	}()

	time.Sleep(duration)
	close(stop)
	wg.Wait()
	for _, l := range late {
		if !check(l.c, l.url, l.meta) {
			reportErr("client %d: response from unpublished epoch %d", l.c, l.meta.Epoch)
		}
	}

	if failures.Load() > 0 {
		t.Errorf("%d/%d responses failed or inconsistent", failures.Load(), responses.Load())
		for {
			select {
			case msg := <-errCh:
				t.Error(msg)
			default:
				return
			}
		}
	}
	if responses.Load() == 0 {
		t.Fatal("no responses recorded")
	}
	if s.store.Swaps() < 2 {
		t.Fatalf("only %d swaps happened; test did not exercise hot-swapping", s.store.Swaps())
	}
	t.Logf("%d responses across %d swaps, 0 failures", responses.Load(), s.store.Swaps())
}

// TestDrainOnReplace verifies a long query holds its snapshot across a
// swap-and-replace and still answers from the complete old snapshot.
func TestDrainOnReplace(t *testing.T) {
	s := New(Config{Workers: 1})
	v1, err := s.store.Build(BuildSpec{Name: "main", Dataset: "uni", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	snap, release := s.store.Acquire()
	if snap != v1 {
		t.Fatal("acquire mismatch")
	}

	// Replace the snapshot under the same name while the query is "running".
	if _, err := s.store.Build(BuildSpec{Name: "main", Dataset: "kr", Scale: "tiny"}); err != nil {
		t.Fatal(err)
	}
	if got := s.store.DrainingCount(); got != 1 {
		t.Fatalf("draining = %d, want 1", got)
	}
	// The in-flight query still sees the complete old graph.
	if snap.graph.NumVertices() != v1.graph.NumVertices() || snap.ranks[0] != v1.ranks[0] {
		t.Fatal("held snapshot mutated during replacement")
	}
	release()
	if got := s.store.DrainingCount(); got != 0 {
		t.Fatalf("draining = %d after release, want 0", got)
	}
	// Double release must be harmless.
	release()
}
