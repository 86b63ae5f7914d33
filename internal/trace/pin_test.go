package trace

import (
	"fmt"
	"strings"
	"testing"

	"graphreorder/internal/apps"
	"graphreorder/internal/cachesim"
	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
)

// TestSimulatedStatsPinned pins the whole simulator output — every counter
// of cachesim.Stats — for the five applications on sd and lj at the tiny
// scale, in the original ordering and after DBG, on MachineFor(gen.Tiny).
// Roots are fixed original-graph IDs mapped through the permutation and
// the iterative applications run a fixed number of rounds, so a change to
// what an application's traced run touches, in what order, moves a row.
// A mismatch prints the row as it reads now.
func TestSimulatedStatsPinned(t *testing.T) {
	pinned := map[string]cachesim.Stats{
		"sd/orig/BC":    {Instructions: 691696, Accesses: 230628, L1Misses: 54489, L2Misses: 30028, L3Misses: 29143, Served: [6]uint64{176139, 24461, 868, 17, 1096, 28047}},
		"sd/dbg/BC":     {Instructions: 691696, Accesses: 230628, L1Misses: 47471, L2Misses: 24977, L3Misses: 24338, Served: [6]uint64{183157, 22494, 619, 20, 780, 23558}},
		"sd/orig/SSSP":  {Instructions: 1973488, Accesses: 697236, L1Misses: 172123, L2Misses: 114904, L3Misses: 106671, Served: [6]uint64{525113, 57219, 2944, 5289, 10250, 96421}},
		"sd/dbg/SSSP":   {Instructions: 1973488, Accesses: 697236, L1Misses: 159626, L2Misses: 93833, L3Misses: 86425, Served: [6]uint64{537610, 65793, 2455, 4953, 9032, 77393}},
		"sd/orig/PR":    {Instructions: 3244008, Accesses: 1124343, L1Misses: 230562, L2Misses: 141159, L3Misses: 137785, Served: [6]uint64{893781, 89403, 3374, 0, 4943, 132842}},
		"sd/dbg/PR":     {Instructions: 3244008, Accesses: 1124343, L1Misses: 207289, L2Misses: 114955, L3Misses: 112443, Served: [6]uint64{917054, 92334, 2512, 0, 3576, 108867}},
		"sd/orig/PRD":   {Instructions: 5406680, Accesses: 1873905, L1Misses: 374720, L2Misses: 179056, L3Misses: 173748, Served: [6]uint64{1499185, 195664, 5308, 0, 7831, 165917}},
		"sd/dbg/PRD":    {Instructions: 5406680, Accesses: 1873905, L1Misses: 322042, L2Misses: 144802, L3Misses: 141045, Served: [6]uint64{1551863, 177240, 3757, 0, 5357, 135688}},
		"sd/orig/Radii": {Instructions: 8663920, Accesses: 3002749, L1Misses: 600861, L2Misses: 286395, L3Misses: 277954, Served: [6]uint64{2401888, 314466, 8439, 2, 12483, 265471}},
		"sd/dbg/Radii":  {Instructions: 8663920, Accesses: 3002749, L1Misses: 516585, L2Misses: 231682, L3Misses: 225694, Served: [6]uint64{2486164, 284903, 5988, 0, 8511, 217183}},
		"lj/orig/BC":    {Instructions: 129288, Accesses: 42528, L1Misses: 2454, L2Misses: 1048, L3Misses: 899, Served: [6]uint64{40074, 1406, 149, 0, 114, 785}},
		"lj/dbg/BC":     {Instructions: 129288, Accesses: 42528, L1Misses: 2459, L2Misses: 1037, L3Misses: 893, Served: [6]uint64{40069, 1422, 144, 0, 118, 775}},
		"lj/orig/SSSP":  {Instructions: 113064, Accesses: 38878, L1Misses: 3646, L2Misses: 2274, L3Misses: 1422, Served: [6]uint64{35232, 1372, 461, 391, 558, 864}},
		"lj/dbg/SSSP":   {Instructions: 113064, Accesses: 38878, L1Misses: 4150, L2Misses: 2688, L3Misses: 1644, Served: [6]uint64{34728, 1462, 679, 365, 768, 876}},
		"lj/orig/PR":    {Instructions: 196608, Accesses: 66048, L1Misses: 4013, L2Misses: 1214, L3Misses: 1055, Served: [6]uint64{62035, 2799, 159, 0, 122, 933}},
		"lj/dbg/PR":     {Instructions: 196608, Accesses: 66048, L1Misses: 4072, L2Misses: 1229, L3Misses: 1082, Served: [6]uint64{61976, 2843, 147, 0, 133, 949}},
		"lj/orig/PRD":   {Instructions: 327680, Accesses: 110080, L1Misses: 5518, L2Misses: 1049, L3Misses: 901, Served: [6]uint64{104562, 4469, 148, 0, 113, 788}},
		"lj/dbg/PRD":    {Instructions: 327680, Accesses: 110080, L1Misses: 5314, L2Misses: 1039, L3Misses: 890, Served: [6]uint64{104766, 4275, 149, 0, 113, 777}},
		"lj/orig/Radii": {Instructions: 524592, Accesses: 176222, L1Misses: 8779, L2Misses: 1056, L3Misses: 907, Served: [6]uint64{167443, 7723, 149, 0, 114, 793}},
		"lj/dbg/Radii":  {Instructions: 524592, Accesses: 176222, L1Misses: 8443, L2Misses: 1043, L3Misses: 894, Served: [6]uint64{167779, 7400, 149, 0, 113, 781}},
	}
	iters := map[string]int{"PR": 3, "PRD": 5}
	machine := MachineFor(gen.Tiny)
	for _, dataset := range []string{"sd", "lj"} {
		g, err := gen.Generate(gen.MustDataset(dataset, gen.Tiny))
		if err != nil {
			t.Fatal(err)
		}
		roots := make([]graph.VertexID, 64)
		roots[0] = hub(g)
		for i := 1; i < len(roots); i++ {
			roots[i] = graph.VertexID((i * 61) % g.NumVertices())
		}
		for _, spec := range apps.All() {
			for _, ordering := range []string{"orig", "dbg"} {
				sg, sroots := g, roots
				if ordering == "dbg" {
					res, err := reorder.PlanOf(reorder.NewDBG()).Apply(g, spec.ReorderDegree())
					if err != nil {
						t.Fatal(err)
					}
					sg, sroots = res.Graph, make([]graph.VertexID, len(roots))
					for i, v := range roots {
						sroots[i] = res.Perm[v]
					}
				}
				st, err := Simulate(spec, sg, sroots, machine, iters[spec.Name])
				if err != nil {
					t.Fatal(err)
				}
				key := dataset + "/" + ordering + "/" + spec.Name
				if want, ok := pinned[key]; !ok || st != want {
					t.Errorf("%s: simulated stats moved; now\n%q: %s,", key, key, statsLiteral(st))
				}
			}
		}
	}
}

// statsLiteral prints st as the composite literal the pinned table holds.
func statsLiteral(st cachesim.Stats) string {
	served := fmt.Sprint(st.Served)
	return fmt.Sprintf("{Instructions: %d, Accesses: %d, L1Misses: %d, L2Misses: %d, L3Misses: %d, Served: [%d]uint64{%s}}",
		st.Instructions, st.Accesses, st.L1Misses, st.L2Misses, st.L3Misses,
		len(st.Served), strings.ReplaceAll(served[1:len(served)-1], " ", ", "))
}
