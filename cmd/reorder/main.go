// Command reorder applies a reordering technique or pipeline to a graph
// file and writes the relabeled graph.
//
// Usage:
//
//	reorder -technique dbg -degree out -i graph.txt -o graph.dbg.txt
//	reorder -technique "dbg|gorder" -metrics -i graph.txt -o /dev/null
//	reorder -technique auto -i graph.txt -o graph.auto.txt
//
// -technique accepts every registry spec: single techniques (dbg, sort,
// hubsort, ...), parameterized forms (dbg:8, rcb-2), "|"-chained
// pipelines (dbg|gorder), and "auto" — the skew-gated advisor, which
// picks a hub-packing pipeline on skewed graphs and leaves low-skew
// graphs untouched (the paper's "reordering can hurt" finding). Input
// format is detected from content (binary magic) and output format
// follows the input. Reordering and CSR-rebuild times are reported on
// stderr, matching the cost accounting of the paper's Fig. 10; -metrics
// adds the ordering-quality report (packing factor, hub working set,
// neighbor gap) of the original and produced layouts.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	graphreorder "graphreorder"
)

func main() {
	var (
		techName = flag.String("technique", "dbg", "registry spec: dbg|sort|hubsort|hubcluster|hubsort-o|hubcluster-o|gorder|gorder+dbg|rv|rcb-<n>|dbg:<k>|auto, stages chained with '|'")
		degree   = flag.String("degree", "out", "degree used for binning: in|out")
		in       = flag.String("i", "", "input graph (text edge list or binary; default stdin)")
		out      = flag.String("o", "", "output path (default stdout)")
		metrics  = flag.Bool("metrics", false, "report ordering-quality metrics (packing factor, hub working set, neighbor gap) for the original and produced layouts")
		timeout  = flag.Duration("timeout", 0, "abort reordering after this long (0 = no limit); checked at phase boundaries (permute/rebuild)")
	)
	flag.Parse()

	// -timeout bounds the reordering via the context-aware API; Ctrl-C
	// cancels the same context. Gorder on a large graph is the case that
	// makes this matter — its cost is the paper's cautionary tale.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var kind graphreorder.DegreeKind
	switch *degree {
	case "in":
		kind = graphreorder.InDegree
	case "out":
		kind = graphreorder.OutDegree
	default:
		fatal(fmt.Errorf("bad -degree %q (want in|out)", *degree))
	}

	var rd io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		rd = f
	}
	g, format, err := graphreorder.ReadGraphAuto(rd)
	if err != nil {
		fatal(err)
	}

	// Resolve the technique after loading: "auto" needs the graph to
	// advise on, and its verdict is worth a line either way. Match
	// case-insensitively like the registry does.
	var tech graphreorder.Technique
	if strings.EqualFold(strings.TrimSpace(*techName), "auto") {
		rec := graphreorder.Advise(g, kind)
		fmt.Fprintf(os.Stderr, "reorder: advisor chose %q: %s\n", rec.Spec, rec.Reason)
		tech = rec.Plan
	} else if tech, err = graphreorder.TechniqueByName(*techName); err != nil {
		fatal(err)
	}

	res, err := graphreorder.ReorderContext(ctx, g, tech, kind)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "reorder: %s on %d vertices / %d edges: permute %v, rebuild %v\n",
		tech.Name(), g.NumVertices(), g.NumEdges(), res.ReorderTime, res.RebuildTime)
	if *metrics {
		printQuality("original", graphreorder.EvaluateOrdering(g, kind))
		printQuality(tech.Name(), graphreorder.EvaluateOrdering(res.Graph, kind))
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if format == graphreorder.BinaryFormat {
		err = graphreorder.WriteGraphBinary(w, res.Graph)
	} else {
		err = graphreorder.WriteEdgeList(w, res.Graph)
	}
	if err != nil {
		fatal(err)
	}
}

func printQuality(layout string, q graphreorder.QualityReport) {
	fmt.Fprintf(os.Stderr,
		"reorder: quality %-12s packing %.2f/%.2f (util %.0f%%), hub working set %d KiB (min %d), avg neighbor gap %.0f\n",
		layout+":", q.PackingFactor, q.IdealPackingFactor, 100*q.PackingUtilization,
		q.HubWorkingSetBytes>>10, q.MinHubWorkingSetBytes>>10, q.AvgNeighborGap)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reorder:", err)
	os.Exit(1)
}
