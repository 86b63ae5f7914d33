// Command bench is this repository's benchmark: four long, fixed-work
// workloads, their end-to-end metrics and the per-layer metrics of a
// traced run. See README.md in this directory for definitions and rules.
//
//	bench run -workload <name> [-seed N] [-seconds S] [-trace 0|1] [-out f.json]
//	bench compare A.json B.json
//	bench calibrate
//	bench baseline set.json
//
// Called with flags only (as BENCHMARK.json's command is), it runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// probeSink keeps the results of timed loops alive.
var probeSink uint64

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "run":
		err = cmdRun(args)
	case "compare":
		err = cmdCompare(args)
	case "calibrate":
		err = cmdCalibrate(args)
	case "baseline":
		err = cmdBaseline(args)
	default:
		err = fmt.Errorf("unknown command %q (want run, compare, calibrate or baseline)", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// contractResult is the last line of standard output: the one JSON
// object the driver reads.
type contractResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed of request vertices, SSSP sources and mutation endpoints")
	seconds := fs.Int("seconds", defaultSeconds, "nominal length of the measured phase on the reference host; fixes the number of units")
	trace := fs.Int("trace", 0, "1 makes the traced run: spans, layer probes, trace.json and per-layer metrics")
	out := fs.String("out", "", "append this run to a result file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	def := findWorkload(*workload)
	if def == nil {
		return fmt.Errorf("unknown workload %q (want %s)", *workload, workloadNames())
	}
	k := unitsFor(def, *seconds)
	traced := *trace != 0
	if traced && k%2 == 1 {
		k++ // traced and untraced units alternate
	}
	runtime.GOMAXPROCS(loadWidth())
	r := newRun(def, *seed, k, traced, refSizes)
	if err := r.execute(); err != nil {
		return fmt.Errorf("%s: %w", def.Name, err)
	}
	r.print(os.Stdout)
	if *out != "" {
		if err := appendResult(*out, r); err != nil {
			return err
		}
	}
	line, err := json.Marshal(r.contract())
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !r.correct() {
		return fmt.Errorf("%s: verification failed", def.Name)
	}
	return nil
}

// contract selects what the driver is told: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func (r *run) contract() contractResult {
	attempted, failed := r.totals()
	res := contractResult{
		Correct: r.correct(), Attempted: attempted, Failed: failed,
		Metrics: make(map[string]contractValue),
	}
	vals := r.e2e
	if r.traced {
		vals = r.layer
	}
	for name, v := range vals {
		res.Metrics[name] = contractValue{Value: v.Value, Unit: v.Unit}
	}
	return res
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}
