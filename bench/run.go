package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// value is one measured metric with the number of samples behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// Operation classes: every operation of a measured unit is one of these.
const (
	classScan  = "scan"
	classPoint = "point"
	classWrite = "write"
)

// opCount counts operations of one class over the measured units. A
// non-200 reply, a transport error or a failed verification is a failed
// operation.
type opCount struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
}

// stopwatch accumulates set-up time while running; it is stopped around
// verification work, which no timer may contain.
type stopwatch struct {
	total   time.Duration
	started time.Time
	running bool
}

func (s *stopwatch) start() {
	if !s.running {
		s.started, s.running = time.Now(), true
	}
}

func (s *stopwatch) stop() {
	if s.running {
		s.total += time.Since(s.started)
		s.running = false
	}
}

// run is one execution of one workload.
type run struct {
	def    *workloadDef
	seed   uint64
	units  int // measured units K; unit 0 is the warm-up
	traced bool
	sz     sizes
	w      int

	scratch string
	rec     *recorder // nil on untraced runs
	setup   stopwatch

	e2e      map[string]value
	layer    map[string]value
	classes  map[string]*opCount
	problems []string
	notes    []string
	opsHash  uint64
	measured time.Duration // wall of the measured phase
}

func newRun(def *workloadDef, seed uint64, units int, traced bool, sz sizes) *run {
	r := &run{
		def: def, seed: seed, units: units, traced: traced, sz: sz, w: loadWidth(),
		e2e:   make(map[string]value),
		layer: make(map[string]value),
		classes: map[string]*opCount{
			classScan: {}, classPoint: {}, classWrite: {},
		},
	}
	if traced {
		r.rec = newRecorder()
	}
	return r
}

// unitsFor derives the number of measured units from -seconds.
func unitsFor(def *workloadDef, seconds int) int {
	return max(def.MinUnits, int(float64(seconds)/def.UnitSeconds))
}

// tracedUnit reports whether unit i records spans: on a traced run the
// odd units do and the even ones do not, which is what
// bench.trace_overhead_pct compares. Unit 0 (warm-up) is never traced.
func (r *run) tracedUnit(i int) bool { return r.traced && i%2 == 1 }

func (r *run) setE2E(name string, v float64, n int) {
	def := findMetric(endToEnd, name)
	if def == nil {
		panic("bench: unknown end-to-end metric " + name)
	}
	r.e2e[name] = value{Value: v, Unit: def.Unit, N: n}
}

func (r *run) setLayer(name string, v float64, n int) {
	def := findMetric(perLayer, name)
	if def == nil {
		panic("bench: unknown per-layer metric " + name)
	}
	r.layer[name] = value{Value: v, Unit: def.Unit, N: n}
}

// attempt counts n attempted operations of a class.
func (r *run) attempt(class string, n int) { r.classes[class].Attempted += int64(n) }

// failOp counts one failed operation and keeps the first few reasons.
func (r *run) failOp(class, format string, args ...any) {
	r.classes[class].Failed++
	r.problem(format, args...)
}

// problem records a failed verification that is not tied to one
// operation; any problem makes the run incorrect.
func (r *run) problem(format string, args ...any) {
	if len(r.problems) < 12 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *run) totals() (attempted, failed int64) {
	for _, c := range r.classes {
		attempted += c.Attempted
		failed += c.Failed
	}
	return attempted, failed
}

func (r *run) correct() bool {
	_, failed := r.totals()
	return failed == 0 && len(r.problems) == 0
}

// scratchRoot is where every run keeps its files: inside the working
// directory, because the benchmark may write nowhere else.
const scratchRoot = ".bench_scratch"

func (r *run) makeScratch() error {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchRoot, r.def.Name+"-")
	if err != nil {
		return err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	r.scratch = abs
	return nil
}

func (r *run) removeScratch() {
	if r.scratch != "" {
		os.RemoveAll(r.scratch)
		os.Remove(scratchRoot) // only succeeds once the last run has left
	}
}

// execute runs the workload and fills in the metrics every workload
// shares. Workload code reports errors that make the run meaningless;
// failed operations and verifications are counted, not returned.
func (r *run) execute() error {
	if err := r.makeScratch(); err != nil {
		return err
	}
	defer r.removeScratch()
	if err := r.def.run(r); err != nil {
		return err
	}
	r.setE2E("setup_s", r.setup.total.Seconds(), 1)
	if r.traced {
		r.finishTrace()
	}
	return nil
}

// finishTrace writes trace.json and fills the per-layer metrics every
// traced run shares; the rest default to 0 ("this layer did no work on
// this workload").
func (r *run) finishTrace() {
	spans := r.rec.snapshot()
	sum := summarize(spans)
	tf := traceFile{
		Host: currentHost(r.w), Workload: r.def.Name, Seed: r.seed,
		TotalSpans: len(spans), Summary: sum, Spans: spans,
	}
	if err := writeTraceFile("trace.json", tf); err != nil {
		r.problem("writing trace.json: %v", err)
	}
	if sum.SelfSumMaxDevPct > 5 {
		r.problem("trace: self times differ from the root span by %.2f%%", sum.SelfSumMaxDevPct)
	}
	r.note("trace.json: %d spans over %d operations, self-time sum within %.3f%% of the roots",
		len(spans), sum.Ops, sum.SelfSumMaxDevPct)
	for _, def := range perLayer {
		if _, ok := r.layer[def.Name]; !ok {
			r.layer[def.Name] = value{Unit: def.Unit}
		}
	}
}

// overheadPct compares the wall of traced and untraced units.
func overheadPct(traced, untraced []time.Duration) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	base := median(durationsMs(untraced))
	if base == 0 {
		return 0
	}
	return 100 * (median(durationsMs(traced)) - base) / base
}

// print writes the human-readable report.
func (r *run) print(w *os.File) {
	host := currentHost(r.w)
	fmt.Fprintf(w, "workload %s  seed %d  units 1+%d  sizes %s  traced %v  ops-hash %016x\n",
		r.def.Name, r.seed, r.units, r.sz.Name, r.traced, r.opsHash)
	fmt.Fprintf(w, "host nproc=%d GOMAXPROCS=%d W=%d %s %s/%s  measured %.1fs\n",
		host.NProc, host.GOMAXPROCS, host.W, host.GoVersion, host.OS, host.Arch, r.measured.Seconds())
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	printValues := func(title string, defs []metricDef, vals map[string]value) {
		fmt.Fprintf(w, "%s\n", title)
		for _, def := range defs {
			v, ok := vals[def.Name]
			if !ok || (v.N == 0 && v.Value == 0) {
				continue
			}
			fmt.Fprintf(w, "  %-34s %16.4f %-6s n=%d\n", def.Name, v.Value, v.Unit, v.N)
		}
	}
	if r.traced {
		printValues("per-layer metrics (traced run):", perLayer, r.layer)
	} else {
		printValues("end-to-end metrics:", endToEnd, r.e2e)
		if len(r.layer) > 0 {
			printValues("also measured (not gated):", perLayer, r.layer)
		}
	}
	names := make([]string, 0, len(r.classes))
	for name := range r.classes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := r.classes[name]
		fmt.Fprintf(w, "ops %-6s attempted %d failed %d\n", name, c.Attempted, c.Failed)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAILED: %s\n", p)
	}
	if r.correct() {
		fmt.Fprintln(w, "verification: passed")
	} else {
		fmt.Fprintln(w, "verification: FAILED")
	}
}
