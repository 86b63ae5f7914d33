// Command graphinfo prints Table I-IV style characterization statistics
// for a graph file or built-in dataset, plus a codec comparison: how
// much space the graph takes in the plain CSR backend versus the
// compressed (delta+varint) one, in memory and on disk.
//
// Usage:
//
//	graphinfo -dataset sd -scale small
//	graphinfo -i mygraph.txt
//	graphinfo -i mygraph.gr
//	graphinfo -i snapshot.csrz
//
// Input files may be text edge lists, binary graphs, or .csrz
// containers; the format is detected from content.
package main

import (
	"flag"
	"fmt"
	"os"

	graphreorder "graphreorder"
)

func main() {
	var (
		dataset = flag.String("dataset", "", "built-in dataset name (alternative to -i)")
		scale   = flag.String("scale", "small", "tiny|small|medium|large (with -dataset)")
		in      = flag.String("i", "", "graph file (text edge list, binary, or .csrz; auto-detected)")
	)
	flag.Parse()

	var (
		g   *graphreorder.Graph
		cz  *graphreorder.CompressedGraph
		err error
	)
	switch {
	case *dataset != "":
		g, err = graphreorder.GenerateDataset(*dataset, *scale)
	case *in != "":
		var isCZ bool
		if isCZ, err = graphreorder.IsCSRZFile(*in); err == nil && isCZ {
			if cz, err = graphreorder.OpenCSRZ(*in); err == nil {
				defer cz.Close()
				// The skew statistics walk every adjacency list many
				// times; decode once rather than stream repeatedly.
				g, err = cz.Decode()
			}
		} else if err == nil {
			var f *os.File
			if f, err = os.Open(*in); err == nil {
				defer f.Close()
				g, _, err = graphreorder.ReadGraphAuto(f)
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphinfo:", err)
		os.Exit(1)
	}

	fmt.Printf("vertices:        %d\n", g.NumVertices())
	fmt.Printf("edges:           %d\n", g.NumEdges())
	fmt.Printf("avg degree:      %.2f\n", g.AvgDegree())
	fmt.Printf("weighted:        %v\n", g.Weighted())
	for _, kind := range []graphreorder.DegreeKind{graphreorder.InDegree, graphreorder.OutDegree} {
		s := graphreorder.Skew(g, kind)
		fmt.Printf("%s-degree skew:  %.1f%% hot vertices cover %.1f%% of edges (%.1f hot/cache block)\n",
			kind, s.HotVertexFrac*100, s.EdgeCoverage*100, s.HotPerCacheBlock)
	}

	if cz == nil {
		cz = graphreorder.CompressGraph(g)
	}
	st := cz.Stats()
	onDisk := st.OnDiskBytes
	source := "actual .csrz file"
	if onDisk == 0 {
		onDisk = cz.FileSize()
		source = "computed, nothing written"
	}
	fmt.Printf("\nspace (both adjacency directions):\n")
	fmt.Printf("  adjacency bytes:   plain %d, compressed %d (ratio %.2fx, %.2f bits/edge)\n",
		st.PlainAdjBytes, st.CompressedAdjBytes, st.Ratio, st.BitsPerEdge)
	fmt.Printf("  resident bytes:    plain %d, compressed %d (indexes included, weights at the width the largest needs)\n",
		st.PlainResidentBytes, st.ResidentBytes)
	fmt.Printf("  on-disk .csrz:     %d bytes (%s)\n", onDisk, source)
}
