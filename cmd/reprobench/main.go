// Command reprobench regenerates the paper's tables and figures.
//
// Usage:
//
//	reprobench [flags] <experiment>...
//	reprobench -list
//	reprobench all
//
// Experiments are named after the paper artifacts (table1, fig6,
// ablation-groups, ...); -list prints the full index (harness.Experiments)
// and EXPERIMENTS.md records their results.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"graphreorder/internal/gen"
	"graphreorder/internal/harness"
)

func main() {
	var (
		scaleName  = flag.String("scale", "small", "dataset scale: tiny|small|medium|large")
		trials     = flag.Int("trials", 3, "timed repetitions per measurement (after 1 warm-up)")
		maxIters   = flag.Int("iters", 10, "iteration cap for iterative applications")
		roots      = flag.Int("roots", 4, "roots aggregated per root-dependent application run")
		seed       = flag.Uint64("seed", 0, "root-selection seed (0 = default)")
		workers    = flag.Int("workers", 1, "EdgeMap worker goroutines (1 = deterministic sequential engine, -1 = GOMAXPROCS)")
		gorderDiv  = flag.Float64("gorder-scale", 40, "divide Gorder reordering time by this (paper's ÷40 convention)")
		skipGorder = flag.Bool("skip-gorder", false, "omit Gorder from technique sweeps (recommended at -scale large)")
		timeout    = flag.Duration("timeout", 0, "abort the whole run after this long (0 = no limit); in-flight traversals stop within one round")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] <experiment>... | all\n\nexperiments:\n", os.Args[0])
		for _, e := range harness.Experiments() {
			fmt.Fprintf(os.Stderr, "  %-18s %s\n", e.ID, e.Artifact)
		}
		fmt.Fprintln(os.Stderr, "\nflags:")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-18s %s\n", e.ID, e.Artifact)
		}
		return
	}
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	scale, err := gen.ParseScale(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	r := harness.NewRunner(harness.Options{
		Scale:       scale,
		Trials:      *trials,
		MaxIters:    *maxIters,
		RootsPerApp: *roots,
		Workers:     *workers,
		Seed:        *seed,
		GorderScale: *gorderDiv,
		SkipGorder:  *skipGorder,
		Out:         os.Stdout,
	})
	// One context covers the whole run: -timeout bounds it, and Ctrl-C
	// cancels it. Either way the in-flight traversal aborts within one
	// EdgeMap round via the harness's context-aware app execution.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	fmt.Printf("reprobench: scale=%s trials=%d iters=%d (started %s)\n",
		scale, *trials, *maxIters, time.Now().Format(time.TimeOnly))
	for _, id := range flag.Args() {
		start := time.Now()
		if err := r.RunByIDContext(ctx, id); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintf(os.Stderr, "reprobench: aborted after -timeout %v: %v\n", *timeout, err)
			} else {
				fmt.Fprintf(os.Stderr, "reprobench: %v\n", err)
			}
			os.Exit(1)
		}
		fmt.Printf("\n[%s done in %s]\n", strings.ToLower(id), time.Since(start).Round(time.Millisecond))
	}
}
