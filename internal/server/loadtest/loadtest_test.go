package loadtest

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphreorder/internal/server"
)

func TestRunAgainstLiveServer(t *testing.T) {
	s := server.New(server.Config{Workers: 1})
	if _, err := s.Store().Build(server.BuildSpec{
		Name: "main", Dataset: "uni", Scale: "tiny", Technique: "dbg",
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, err := Run(Options{
		BaseURL: ts.URL,
		Clients: 4,
		Ops:     400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 400 {
		t.Fatalf("%d requests issued, want 400", res.Requests)
	}
	if res.Failures != 0 {
		t.Fatalf("%d failures: %v", res.Failures, res.FirstErrors)
	}
	total := uint64(0)
	for _, ks := range res.ByKind {
		total += ks.Requests
	}
	if total != res.Requests {
		t.Errorf("per-kind requests %d != total %d", total, res.Requests)
	}
	if res.String() == "" {
		t.Error("empty report")
	}
}

// TestMixedReadWriteAcrossRefreshes is the package-level version of the
// graphd write-mix selftest: concurrent readers and writers against a
// live DBG snapshot of uni/tiny, whose random insertions decay the
// order's packing often enough that full re-reorders land mid-run, among
// patched publishes. Zero requests may be
// lost, every read-after-write must observe its receipt's epoch, and no
// read may see a torn (epoch, edge-count) pair.
func TestMixedReadWriteAcrossRefreshes(t *testing.T) {
	s := server.New(server.Config{Workers: 1})
	defer s.Store().CloseLive()
	if _, err := s.Store().Build(server.BuildSpec{
		Name: "main", Dataset: "uni", Scale: "tiny", Technique: "dbg", Mutable: true,
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, err := Run(Options{
		BaseURL: ts.URL,
		Clients: 4,
		Ops:     800,
		Mix:     Mix{Neighbors: 50, Rank: 15, TopK: 10, SSSP: 5, Mutate: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("%d/%d requests failed: %v", res.Failures, res.Requests, res.FirstErrors)
	}
	writes := res.ByKind["mutate"].Requests
	if writes == 0 {
		t.Fatal("no write batches issued")
	}
	var m server.MetricsReport
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Writes.Batches != writes {
		t.Errorf("server applied %d batches, clients sent %d", m.Writes.Batches, writes)
	}
	if m.Writes.Refreshes == 0 {
		t.Error("no re-reorder landed during the run (the live order's packing never decayed); raise Ops")
	}
	if m.Writes.Publishes == m.Writes.Refreshes {
		t.Error("no patched publish landed during the run")
	}
}

// TestWriteMixRequiresMutableSnapshot: asking for writes against a
// server with only immutable snapshots is a setup error.
func TestWriteMixRequiresMutableSnapshot(t *testing.T) {
	s := server.New(server.Config{Workers: 1})
	if _, err := s.Store().Build(server.BuildSpec{Name: "main", Dataset: "uni", Scale: "tiny"}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := Run(Options{BaseURL: ts.URL, Ops: 50, Mix: Mix{Mutate: 1}}); err == nil {
		t.Error("write mix against immutable-only server accepted")
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Error("missing BaseURL accepted")
	}
	// Server with no snapshots.
	s := server.New(server.Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := Run(Options{BaseURL: ts.URL, Ops: 50}); err == nil {
		t.Error("empty server accepted")
	}
	// A drill that could only fire inside the held tail.
	st := httptest.NewServer(&stub{})
	defer st.Close()
	_, err := Run(Options{BaseURL: st.URL, Ops: 100, Drills: []Drill{{Name: "late", After: 95, Do: func(*Control) error { return nil }}}})
	if err == nil || !strings.Contains(err.Error(), "held tail") {
		t.Errorf("drill past the held tail: err = %v", err)
	}
}

// stub is a fake graphd holding one mutable snapshot, "live", of 100
// vertices. Writes publish a new epoch unless refuse is set, when they
// are refused with 503; reads report the latest epoch. It counts the
// requests it has received (the listing aside) before it answers them,
// so the count never trails the answers a client has; it also keeps
// every read's URI and counts writes in flight.
type stub struct {
	refuse   atomic.Bool
	epoch    atomic.Uint64
	served   atomic.Uint64
	inflight atomic.Int64

	mu    sync.Mutex
	reads []string
}

func (s *stub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/snapshots" {
		fmt.Fprint(w, `{"snapshots":[{"name":"live","vertices":100,"mutable":true}]}`)
		return
	}
	s.served.Add(1)
	switch {
	case r.Method == http.MethodPost:
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		if s.refuse.Load() {
			http.Error(w, "live graph down", http.StatusServiceUnavailable)
		} else {
			fmt.Fprintf(w, `{"epoch":%d,"edges":0}`, s.epoch.Add(1))
		}
	default:
		s.mu.Lock()
		s.reads = append(s.reads, r.URL.RequestURI())
		s.mu.Unlock()
		fmt.Fprintf(w, `{"snapshot":"live","epoch":%d,"edges":0}`, s.epoch.Load())
	}
}

// TestSameOptionsSameOperations: the operation list is planned from the
// options alone, so two runs read the same URIs, and the plan hashes the
// same twice.
func TestSameOptionsSameOperations(t *testing.T) {
	mix := Mix{Neighbors: 50, Degree: 10, Rank: 10, TopK: 10, SSSP: 10, Mutate: 10}
	hash := func() uint64 {
		st := &stub{}
		ts := httptest.NewServer(st)
		defer ts.Close()
		res, err := Run(Options{BaseURL: ts.URL, Clients: 3, Ops: 300, Mix: mix})
		if err != nil || res.Failures != 0 {
			t.Fatalf("run: %v %v", err, res.FirstErrors)
		}
		slices.Sort(st.reads)
		h := fnv.New64a()
		fmt.Fprint(h, st.reads)
		return h.Sum64()
	}
	if a, b := hash(), hash(); a != b {
		t.Errorf("two runs with the same options read different URIs (%x, %x)", a, b)
	}
	planHash := func(n int) uint64 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%+v", plan(300, mix, n))
		return h.Sum64()
	}
	if planHash(100) != planHash(100) {
		t.Error("the same options planned different operation lists")
	}
	if planHash(100) == planHash(99) {
		t.Error("the plan ignores the vertex count")
	}
}

// TestDrillFiresOnAcks: a drill fires only once After operations have
// been answered, Await waits for answers, and the held tail, the last
// tenth of the list, is sent only after the drill returns. The counts
// are the server's, not the runner's.
func TestDrillFiresOnAcks(t *testing.T) {
	st := &stub{}
	ts := httptest.NewServer(st)
	defer ts.Close()
	const ops, after, more, heldFrom = 400, 150, 40, 360
	var atFire, atAwait, atReturn uint64
	var stall error
	res, err := Run(Options{BaseURL: ts.URL, Clients: 4, Ops: ops, Drills: []Drill{{
		Name: "probe", After: after,
		Do: func(ctl *Control) error {
			atFire = st.served.Load()
			if err := ctl.Await(more); err != nil {
				return err
			}
			atAwait = st.served.Load()
			// Waiting for more than the list holds stalls once every
			// operation before the held tail has been answered.
			stall = ctl.Await(ops)
			atReturn = st.served.Load()
			return nil
		},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if atFire < after {
		t.Errorf("drill fired with %d operations received, want >= %d answered", atFire, after)
	}
	if atAwait < after+more {
		t.Errorf("Await(%d) returned with %d operations received, want >= %d answered", more, atAwait, after+more)
	}
	if stall == nil || atReturn != heldFrom {
		t.Errorf("stalled with %d operations received (err %v), want the %d before the held tail", atReturn, stall, heldFrom)
	}
	if end := st.served.Load(); end != ops {
		t.Errorf("%d operations received in all, want %d", end, ops)
	}
	d := res.Drills[0]
	if d.Name != "probe" || d.Before < after || d.After == 0 || res.Requests != 400 {
		t.Errorf("drill result %+v, %d requests", d, res.Requests)
	}
}

// TestDrillStallFails: a drill waiting on an event the operations before
// the held tail can no longer produce fails, naming the event, instead
// of hanging.
func TestDrillStallFails(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		do         func(*Control) error
	}{
		{"await", "waiting for 1000 more operations", func(ctl *Control) error { return ctl.Await(1000) }},
		{"outage", "waiting for a write refused with 503", func(ctl *Control) error {
			return ctl.Outage(func() error { return nil }, func() error { return nil })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := &stub{}
			ts := httptest.NewServer(st)
			defer ts.Close()
			done := make(chan error, 1)
			go func() {
				// A read-only mix: no write can ever be refused.
				_, err := Run(Options{BaseURL: ts.URL, Clients: 2, Ops: 200,
					Drills: []Drill{{Name: "stuck", After: 10, Do: tc.do}}})
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), `"stuck"`) {
					t.Errorf("err = %v, want the drill named and %q", err, tc.want)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("stalled drill hung the run")
			}
		})
	}
}

// TestRefusedWriteOutsideOutageFails: a write refused with 503 is
// tolerated only when it started inside an outage, between the crash
// and the return of its recovery. Anywhere else it fails the run.
func TestRefusedWriteOutsideOutageFails(t *testing.T) {
	mix := Mix{Neighbors: 1, Mutate: 1}
	for _, tc := range []struct {
		name        string
		refuseFirst bool // writes are refused from the start
		restore     bool // the outage's recovery makes writes succeed again
		wantFail    bool
	}{
		{"no outage", true, false, true},
		{"inside the outage", false, true, false},
		{"after the outage closed", false, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := &stub{}
			st.refuse.Store(tc.refuseFirst)
			ts := httptest.NewServer(st)
			defer ts.Close()
			var drills []Drill
			if !tc.refuseFirst {
				drills = []Drill{{Name: "crash", After: 50, Do: func(ctl *Control) error {
					return ctl.Outage(func() error {
						// No write may be in flight or start while crash runs.
						epoch := st.epoch.Load()
						time.Sleep(20 * time.Millisecond)
						if n := st.inflight.Load(); n != 0 || st.epoch.Load() != epoch {
							return fmt.Errorf("writes ran during the crash (%d in flight)", n)
						}
						st.refuse.Store(true)
						return nil
					}, func() error {
						st.refuse.Store(!tc.restore)
						return nil
					})
				}}}
			}
			res, err := Run(Options{BaseURL: ts.URL, Clients: 4, Ops: 400, Mix: mix, Drills: drills})
			if err != nil {
				t.Fatal(err)
			}
			if !tc.refuseFirst && res.WriteUnavailable == 0 {
				t.Error("no write counted as refused inside the outage")
			}
			if failed := res.Failures > 0; failed != tc.wantFail {
				t.Errorf("%d failures (want failures: %v): %v", res.Failures, tc.wantFail, res.FirstErrors)
			}
			if tc.wantFail && !strings.Contains(strings.Join(res.FirstErrors, "\n"), " 503 ") {
				t.Errorf("failures do not name the 503: %v", res.FirstErrors)
			}
		})
	}
}
