package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"strings"
)

// runRecord is one run in a result file.
type runRecord struct {
	Workload  string              `json:"workload"`
	Seed      uint64              `json:"seed"`
	Units     int                 `json:"units"`
	Sizes     string              `json:"sizes"`
	Traced    bool                `json:"traced"`
	OpsHash   string              `json:"ops_hash"`
	Correct   bool                `json:"correct"`
	MeasuredS float64             `json:"measured_s"`
	Classes   map[string]*opCount `json:"classes"`
	Metrics   map[string]value    `json:"metrics"`
	Problems  []string            `json:"problems,omitempty"`
}

// resultFile is what -out accumulates: every run of one set on one host.
type resultFile struct {
	Host hostShape   `json:"host"`
	Runs []runRecord `json:"runs"`
}

func (r *run) record() runRecord {
	// An untraced run records its end-to-end metrics plus the few extra
	// ones it measures anyway (e2e.*); a traced run its per-layer metrics.
	metrics := make(map[string]value)
	for name, v := range r.layer {
		if r.traced || v.N > 0 {
			metrics[name] = v
		}
	}
	if !r.traced {
		for name, v := range r.e2e {
			metrics[name] = v
		}
	}
	return runRecord{
		Workload: r.def.Name, Seed: r.seed, Units: r.units, Sizes: r.sz.Name, Traced: r.traced,
		OpsHash: fmt.Sprintf("%016x", r.opsHash), Correct: r.correct(),
		MeasuredS: r.measured.Seconds(), Classes: r.classes, Metrics: metrics, Problems: r.problems,
	}
}

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	buf, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(buf, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

func writeResultFile(path string, rf resultFile) error {
	buf, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// appendResult adds the run to the result file at path, creating it when
// missing. A file from a host of another shape is refused: its numbers
// would not be comparable.
func appendResult(path string, r *run) error {
	rf, err := readResultFile(path)
	host := currentHost(r.w)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		rf = resultFile{Host: host}
	case err != nil:
		return err
	case rf.Host != host:
		return fmt.Errorf("%s was recorded on a different host shape (%+v, this is %+v)", path, rf.Host, host)
	}
	rf.Runs = append(rf.Runs, r.record())
	return writeResultFile(path, rf)
}

// manifest is the part of BENCHMARK.json the bench reads back: names,
// units, directions and the regression bounds.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadManifest finds BENCHMARK.json in the working directory or its
// parent (the bench runs from the repository root or from bench/).
func loadManifest() (manifest, error) {
	var m manifest
	var buf []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if buf, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return m, fmt.Errorf("BENCHMARK.json not found here or one level up: %w", err)
	}
	return m, json.Unmarshal(buf, &m)
}

// series collects one metric's values over the untraced runs of a file.
func series(rf resultFile) map[[2]string][]float64 {
	out := make(map[[2]string][]float64)
	for _, run := range rf.Runs {
		if run.Traced {
			continue
		}
		for name, v := range run.Metrics {
			key := [2]string{run.Workload, name}
			out[key] = append(out[key], v.Value)
		}
	}
	return out
}

// worsening is how much worse b is than a as a share of a, given the
// metric's direction; negative means b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

func cmdCompare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: bench compare A.json B.json")
	}
	a, err := readResultFile(args[0])
	if err != nil {
		return err
	}
	b, err := readResultFile(args[1])
	if err != nil {
		return err
	}
	m, err := loadManifest()
	if err != nil {
		return err
	}
	if a.Host != b.Host {
		fmt.Printf("warning: host shapes differ (%+v vs %+v); the verdicts mean little\n", a.Host, b.Host)
	}
	sa, sb := series(a), series(b)
	fmt.Printf("%-14s %-19s %4s %12s %12s %12s | %4s %12s %12s %12s | %8s %5s  %s\n",
		"workload", "metric", "nA", "q1", "median", "q3", "nB", "q1", "median", "q3", "B vs A", "bound", "verdict")
	regressed := 0
	row := func(w string, def manifestMetric, gated bool) {
		key := [2]string{w, def.Name}
		xa, xb := sa[key], sb[key]
		if len(xa) == 0 || len(xb) == 0 {
			return
		}
		a1, a2, a3 := quartiles(xa)
		b1, b2, b3 := quartiles(xb)
		worse := worsening(a2, b2, def.Better)
		noise := max(spread(xa), spread(xb))
		bound, verdict := "    -", "not gated: within the sets' own spread"
		switch {
		case gated && worse > def.Bound:
			verdict = "REGRESSED"
			regressed++
		case gated && noise > def.Bound:
			verdict = "unresolved (spread wider than the bound)"
		case gated && worse < -def.Bound:
			verdict = "improved"
		case gated:
			verdict = "ok"
		case math.Abs(worse) > noise:
			verdict = "not gated: differs by more than either set's spread; settle it with paired runs"
		}
		if gated {
			bound = fmt.Sprintf("%4.0f%%", 100*def.Bound)
		}
		fmt.Printf("%-14s %-19s %4d %12.4f %12.4f %12.4f | %4d %12.4f %12.4f %12.4f | %+7.2f%% %s  %s\n",
			w, def.Name, len(xa), a1, a2, a3, len(xb), b1, b2, b3, 100*worse, bound, verdict)
	}
	for _, w := range workloads {
		for _, def := range m.EndToEnd {
			row(w.Name, def, true)
		}
		for _, def := range m.PerLayer {
			if strings.HasPrefix(def.Name, demotedPrefix) {
				row(w.Name, def, false)
			}
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d (workload, metric) pairs regressed past their bound", regressed)
	}
	return nil
}

// baselineFile is one point of the BENCH_<n>.json trajectory: the medians
// of one set of runs on one host.
type baselineFile struct {
	Host      hostShape                          `json:"host"`
	Runs      map[string]int                     `json:"untraced_runs"`
	EndToEnd  map[string]map[string]baselineStat `json:"end_to_end"`
	PerLayer  map[string]map[string]baselineStat `json:"per_layer"`
	Attempted map[string]int64                   `json:"attempted"`
	Failed    map[string]int64                   `json:"failed"`
}

type baselineStat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
	Runs   int     `json:"runs"`
}

// cmdBaseline condenses a result file into per-workload medians: the
// end-to-end metrics over the untraced runs, the per-layer metrics over
// the traced ones (and the e2e.* extras over the untraced runs that carry
// them).
func cmdBaseline(args []string) error {
	if len(args) != 1 {
		return errors.New("usage: bench baseline set.json")
	}
	rf, err := readResultFile(args[0])
	if err != nil {
		return err
	}
	out := baselineFile{
		Host: rf.Host, Runs: make(map[string]int),
		EndToEnd: make(map[string]map[string]baselineStat), PerLayer: make(map[string]map[string]baselineStat),
		Attempted: make(map[string]int64), Failed: make(map[string]int64),
	}
	// Traced runs first, so that the e2e.* extras of the untraced runs
	// (more of them, and measured without tracing) replace the traced ones.
	for _, traced := range []bool{true, false} {
		vals := make(map[[2]string][]float64)
		units := make(map[string]string)
		for _, run := range rf.Runs {
			if run.Traced != traced {
				continue
			}
			if !traced {
				out.Runs[run.Workload]++
				for _, c := range run.Classes {
					out.Attempted[run.Workload] += c.Attempted
					out.Failed[run.Workload] += c.Failed
				}
			}
			for name, v := range run.Metrics {
				if v.N == 0 {
					continue // the layer did no work on this workload
				}
				k := [2]string{run.Workload, name}
				vals[k] = append(vals[k], v.Value)
				units[name] = v.Unit
			}
		}
		for k, xs := range vals {
			q1, q2, q3 := quartiles(xs)
			into := out.PerLayer
			if findMetric(endToEnd, k[1]) != nil {
				into = out.EndToEnd
			}
			if into[k[0]] == nil {
				into[k[0]] = make(map[string]baselineStat)
			}
			into[k[0]][k[1]] = baselineStat{Median: q2, Q1: q1, Q3: q3, Unit: units[k[1]], Runs: len(xs)}
		}
	}
	buf, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", buf)
	return nil
}
