package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"graphreorder/internal/obs"
)

// TestPercentileRule pins rule N6: a percentile is reported only with at
// least ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{0, 95, 0}, {199, 95, 9}, {200, 95, 10}, {320, 95, 16},
		{999, 99, 9}, {1000, 99, 10}, {10000, 99.9, 10},
	} {
		if got := samplesBeyond(c.n, c.p); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}
	s := make([]float64, 200)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (nearest rank)", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Op: 1, Name: "b", Start: 30, End: 60}, // overlaps a by 10
		{ID: 4, Parent: 2, Op: 1, Name: "a1", Start: 15, End: 25},
		{ID: 5, Parent: 1, Op: 1, Name: "late", Start: 90, End: 120}, // clipped to the root
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - 50 - 10, // children cover [10,60) and [90,100)
		2: 30 - 10,
		3: 30,
		4: 10,
		5: 30,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}

	// Without overlapping siblings the self times of an operation add up
	// to its root span.
	nested := []span{
		{ID: 1, Parent: 0, Op: 7, Name: "scan", Start: 5, End: 105},
		{ID: 2, Parent: 1, Op: 7, Name: "apps.PR", Start: 10, End: 50},
		{ID: 3, Parent: 1, Op: 7, Name: "apps.BC", Start: 50, End: 100},
		{ID: 4, Parent: 3, Op: 7, Name: "inner", Start: 60, End: 70},
	}
	sum := summarize(nested)
	if sum.Ops != 1 || sum.SelfSumMaxDevPct != 0 {
		t.Fatalf("summary = %+v, want one operation with no deviation", sum)
	}
	if got := sum.Layers["scan"].SelfMs; math.Abs(got-10e-6) > 1e-12 {
		t.Fatalf("scan self = %v ms, want 10 ns", got)
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	var none *recorder
	none.enable(true)
	none.end(none.begin(0, none.newOp(), "x"))
	rec := newRecorder()
	rec.end(rec.begin(0, rec.newOp(), "off"))
	rec.enable(true)
	op := rec.newOp()
	root := rec.begin(0, op, "root")
	rec.call(root, op, "child", func() { time.Sleep(time.Millisecond) })
	rec.end(root)
	spans := rec.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
}

// planHash hashes everything serve-sd derives from a seed.
func planHash(seed uint64) uint64 {
	h := newOpHasher()
	for c := 0; c < 2; c++ {
		h.points(genPointOps(seed, uint64(c), 4096, 1000, httpMix, verifySetSize))
	}
	h.vertices(coldSources(seed, 4096, 64))
	h.batches(genBatches(seed, 4096, 16, 4))
	return h.sum()
}

func TestSameSeedSameOperations(t *testing.T) {
	if planHash(7) != planHash(7) {
		t.Fatal("the same seed produced two different operation lists")
	}
	if planHash(7) == planHash(8) {
		t.Fatal("two seeds produced the same operation list")
	}
	ops := genPointOps(3, 0, 4096, 1000, httpMix, verifySetSize)
	for i, op := range ops {
		if op.Verify != (i%verifyEvery == verifyEvery-1) {
			t.Fatalf("op %d: Verify = %v", i, op.Verify)
		}
		if op.Verify && int(op.V) >= verifySetSize {
			t.Fatalf("verification op %d names set member %d", i, op.V)
		}
	}
	srcs := coldSources(3, 4096, 64)
	seen := make(map[uint32]bool)
	for _, s := range srcs {
		if seen[s] {
			t.Fatalf("cold source %d drawn twice", s)
		}
		seen[s] = true
	}
	removals := 0
	for _, b := range genBatches(3, 4096, 16, 4) {
		for _, m := range b {
			if m.Remove {
				removals++
			}
		}
	}
	if removals != 4 {
		t.Fatalf("%d removals in 16 batches, want one every 4th batch", removals)
	}
}

func TestResultFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "set.json")
	def := findWorkload(wlBatch)
	for seed := uint64(1); seed <= 2; seed++ {
		r := newRun(def, seed, 5, false, tinySizes)
		r.opsHash = 0xfeed
		r.measured = 3 * time.Second
		r.attempt(classScan, 5)
		for i, m := range endToEnd {
			r.setE2E(m.Name, float64(seed)*10+float64(i)+0.125, 5)
		}
		if err := appendResult(path, r); err != nil {
			t.Fatal(err)
		}
	}
	rf, err := readResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Host != currentHost(loadWidth()) {
		t.Fatalf("host = %+v", rf.Host)
	}
	if len(rf.Runs) != 2 || rf.Runs[1].Seed != 2 || rf.Runs[0].OpsHash != "000000000000feed" || !rf.Runs[0].Correct {
		t.Fatalf("runs = %+v", rf.Runs)
	}
	if got := rf.Runs[1].Metrics["peak_rss_mb"]; got != (value{Value: 21.125, Unit: "MiB", N: 5}) {
		t.Fatalf("peak_rss_mb = %+v", got)
	}
	if got := rf.Runs[0].Classes[classScan].Attempted; got != 5 {
		t.Fatalf("scan attempts = %d", got)
	}
	if got := series(rf)[[2]string{wlBatch, "setup_s"}]; !reflect.DeepEqual(got, []float64{10.125, 20.125}) {
		t.Fatalf("series = %v", got)
	}
	other := rf
	other.Host.NProc++
	if err := writeResultFile(path, other); err != nil {
		t.Fatal(err)
	}
	if err := appendResult(path, newRun(def, 3, 5, false, tinySizes)); err == nil {
		t.Fatal("a result file from another host shape was accepted")
	}
}

func TestBounds(t *testing.T) {
	if got := boundFor("peak_rss_mb", 0.004, 0.006); got != 0.03 {
		t.Errorf("quiet metric: bound %v, want the 3%% floor", got)
	}
	if got := boundFor("peak_rss_mb", 0.021, 0.004); got != 0.05 {
		t.Errorf("2 x 2.1%% rounds up to 5%%, got %v", got)
	}
	if got := boundFor("e2e.point_ops_s", 0.01, 0.0534); got != 0.09 {
		t.Errorf("1.5 x 5.34%% rounds up to 9%%, got %v", got)
	}
	if got := boundFor("setup_s", 0.01, 0.5); got != 0.22 {
		t.Errorf("set-up: spread not gated, set-to-set never below the busy host's 10.84%%; got %v", got)
	}
	if w := worsening(100, 90, "higher"); w != 0.1 {
		t.Errorf("10%% fewer ops/s is 10%% worse, got %v", w)
	}
	if w := worsening(100, 90, "lower"); w != -0.1 {
		t.Errorf("10%% less latency is 10%% better, got %v", w)
	}
}

// benchmarkJSON is the whole of BENCHMARK.json, which lives one level up.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	manifest
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(buf, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestManifestMatchesCode(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the code %+v", kind, i, g, d)
			}
			limit := demoteAbove
			if g.Name == "setup_s" {
				limit = maxBound
			}
			if bounded && (g.Bound < minBound || g.Bound > limit) {
				t.Errorf("%s: bound %v outside [%v, %v]", g.Name, g.Bound, minBound, limit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", len(perLayer))
	}
	largest := 0.0
	for _, m := range bj.EndToEnd {
		largest = max(largest, m.Bound)
	}
	if bj.EndToEnd[0].Name != "setup_s" || bj.EndToEnd[0].Bound != largest {
		t.Errorf("setup_s must come first and carry the largest bound (%v)", largest)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the code's default is %d", bj.RunSeconds, defaultSeconds)
	}
	for _, w := range workloads {
		if k := unitsFor(&w, bj.RunSeconds); k < w.MinUnits {
			t.Errorf("%s: %d units at run_seconds %d, the floor is %d", w.Name, k, bj.RunSeconds, w.MinUnits)
		}
	}
}

// TestSmokeAllWorkloads runs every workload once untraced and once traced
// at the tiny sizes and checks that what a run emits is exactly what
// BENCHMARK.json promises. It runs real servers on loopback ports and
// takes a few seconds on any number of cores.
func TestSmokeAllWorkloads(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var wantE2E, wantLayer []string
	for _, m := range bj.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
	}
	for _, m := range bj.PerLayer {
		wantLayer = append(wantLayer, m.Name)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)
	t.Chdir(t.TempDir()) // scratch files and trace.json land here
	start := time.Now()
	for i := range workloads {
		def := &workloads[i]
		for _, traced := range []bool{false, true} {
			units := 1
			if traced {
				units = 2
			}
			r := newRun(def, 1, units, traced, tinySizes)
			if err := r.execute(); err != nil {
				t.Fatalf("%s traced=%v: %v", def.Name, traced, err)
			}
			if !r.correct() {
				t.Errorf("%s traced=%v: verification failed: %v", def.Name, traced, r.problems)
			}
			attempted, failed := r.totals()
			if attempted < 1 || failed != 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d", def.Name, traced, attempted, failed)
			}
			out := r.contract()
			got := obs.SortedKeys(out.Metrics)
			want := wantE2E
			if traced {
				want = wantLayer
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v emits %v, BENCHMARK.json promises %v", def.Name, traced, got, want)
			}
			if !traced {
				for name, v := range out.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", def.Name, name, v.Value)
					}
				}
				continue
			}
			for _, m := range perLayer {
				owned := false
				for _, w := range m.On {
					owned = owned || w == def.Name
				}
				v := r.layer[m.Name]
				tail := m.Name == "e2e.scan_p95_ms" || m.Name == "server.point_p99_us" // too few samples at this size
				if owned && v.N == 0 && !tail {
					t.Errorf("%s: traced run did not measure %s", def.Name, m.Name)
				}
				if !owned && v.N != 0 {
					t.Errorf("%s: traced run measured %s, which belongs to %v", def.Name, m.Name, m.On)
				}
			}
			if _, err := os.Stat("trace.json"); err != nil {
				t.Errorf("%s: traced run left no trace.json: %v", def.Name, err)
			}
		}
		if _, err := os.Stat(scratchRoot); !os.IsNotExist(err) {
			t.Errorf("%s left its scratch directory behind", def.Name)
		}
	}
	// The budget is 15 s without the race detector; not asserted, because
	// a wall-clock assertion fails on a busy host for no fault of the code.
	t.Logf("all workloads, untraced and traced, in %v", time.Since(start).Round(time.Millisecond))
}

func TestSmokeSameSeedSameHash(t *testing.T) {
	t.Chdir(t.TempDir())
	def := findWorkload(wlCluster)
	var hashes []uint64
	for _, seed := range []uint64{5, 5, 6} {
		r := newRun(def, seed, 1, false, tinySizes)
		if err := r.execute(); err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, r.opsHash)
	}
	if hashes[0] != hashes[1] || hashes[0] == hashes[2] {
		t.Fatalf("ops hashes %x: want equal for equal seeds, different otherwise", hashes)
	}
}
