package reorder

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
)

// TestAdvisorRoutesPowerLawToHubAware is the acceptance property: on a
// generated power-law graph the advisor must pick a hub-aware technique,
// and applying its plan must measurably improve the packing factor over
// the original order.
func TestAdvisorRoutesPowerLawToHubAware(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("pl", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	rec := Advise(g, graph.OutDegree)
	if !rec.Reorder() || rec.Spec != "dbg" {
		t.Fatalf("power-law graph advised %q (%s), want dbg", rec.Spec, rec.Reason)
	}
	if rec.PredictedGain <= 1.25 {
		t.Errorf("predicted gain %v suspiciously low for a power-law graph", rec.PredictedGain)
	}
	before := Evaluate(g, graph.OutDegree, nil)
	res, err := rec.Plan.Apply(g, graph.OutDegree)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality.PackingFactor <= before.PackingFactor {
		t.Errorf("measured packing did not improve: %v -> %v",
			before.PackingFactor, res.Quality.PackingFactor)
	}
	// The prediction must be honest: the realized packing reaches the
	// advertised ideal (DBG packs all hot vertices contiguously).
	if res.Quality.PackingFactor < rec.PredictedPacking*0.95 {
		t.Errorf("realized packing %v fell short of predicted %v",
			res.Quality.PackingFactor, rec.PredictedPacking)
	}
}

// TestAdvisorRoutesUniformToIdentity is the other half of the acceptance
// property: a uniform-degree graph must be left alone.
func TestAdvisorRoutesUniformToIdentity(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("uni", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	rec := Advise(g, graph.OutDegree)
	if rec.Reorder() {
		t.Fatalf("uniform graph advised %q (%s), want original", rec.Spec, rec.Reason)
	}
	if !strings.Contains(rec.Reason, "not skewed") {
		t.Errorf("reason %q does not name the skew gate", rec.Reason)
	}
	// The identity plan really is the identity.
	perm, err := rec.Plan.Permute(g, graph.OutDegree)
	if err != nil {
		t.Fatal(err)
	}
	for v, id := range perm {
		if int(id) != v {
			t.Fatalf("identity plan moved vertex %d to %d", v, id)
		}
	}
}

func TestAdvisorSkewedSuiteAndNoSkewSuite(t *testing.T) {
	// Every skewed dataset passes the gates; both no-skew datasets fail.
	for _, name := range gen.SkewedNames() {
		g, err := gen.Generate(gen.MustDataset(name, gen.Tiny))
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []graph.DegreeKind{graph.InDegree, graph.OutDegree} {
			if rec := Advise(g, kind); !rec.Reorder() {
				t.Errorf("%s/%v: advised %q (%s)", name, kind, rec.Spec, rec.Reason)
			}
		}
	}
	for _, name := range gen.NoSkewNames() {
		g, err := gen.Generate(gen.MustDataset(name, gen.Tiny))
		if err != nil {
			t.Fatal(err)
		}
		if rec := Advise(g, graph.OutDegree); rec.Reorder() {
			t.Errorf("%s: advised %q (%s), want original", name, rec.Spec, rec.Reason)
		}
	}
}

func TestAdvisorEmptyAndEdgeless(t *testing.T) {
	empty, _ := graph.Build(nil)
	if rec := Advise(empty, graph.OutDegree); rec.Reorder() {
		t.Errorf("empty graph advised %q", rec.Spec)
	}
	iso, _ := graph.BuildWith(nil, graph.BuildOptions{NumVertices: 5})
	if rec := Advise(iso, graph.OutDegree); rec.Reorder() {
		t.Errorf("edgeless graph advised %q", rec.Spec)
	}
}

func TestAutoTechnique(t *testing.T) {
	pl, err := gen.Generate(gen.MustDataset("pl", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	auto, err := PlanOf(Auto{}).Apply(pl, graph.OutDegree)
	if err != nil {
		t.Fatal(err)
	}
	dbg, err := PlanOf(NewDBG()).Apply(pl, graph.OutDegree)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Quality.PackingFactor != dbg.Quality.PackingFactor {
		t.Errorf("auto on a skewed graph (packing %v) != DBG (%v)",
			auto.Quality.PackingFactor, dbg.Quality.PackingFactor)
	}

	uni, err := gen.Generate(gen.MustDataset("uni", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	perm, err := Auto{}.Permute(uni, graph.OutDegree)
	if err != nil {
		t.Fatal(err)
	}
	for v, id := range perm {
		if int(id) != v {
			t.Fatalf("auto moved vertex %d on a uniform graph", v)
		}
	}
}

// TestResolveMatchesPlans: Resolve, from a graph's degrees and edge
// count alone, gives the permutation the technique's plan computes on the
// graph (the advisor's plan for auto; nil for the identity), the verdict
// Advise gives (for auto only), and declines exactly the plans that read
// more than degrees: Gorder and a composition.
func TestResolveMatchesPlans(t *testing.T) {
	for _, ds := range []string{"sd", "uni", "mp"} {
		g, err := gen.Generate(gen.MustDataset(ds, gen.Tiny))
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []graph.DegreeKind{graph.OutDegree, graph.InDegree} {
			for _, spec := range []string{"original", "dbg", "sort", "hubsort", "hubcluster", "auto", "gorder", "dbg|gorder"} {
				tech, err := ByName(spec)
				if err != nil {
					t.Fatal(err)
				}
				perm, rec, ok := Resolve(tech, g.Degrees(kind), g.NumEdges())
				name := ds + "/" + kind.String() + "/" + spec
				if wantOK := spec != "gorder" && spec != "dbg|gorder"; ok != wantOK {
					t.Errorf("%s: ok = %v, want %v", name, ok, wantOK)
					continue
				}
				plan := PlanOf(tech)
				if spec == "auto" {
					want := Advise(g, kind)
					if rec == nil || !reflect.DeepEqual(*rec, want) {
						t.Errorf("%s: recommendation %+v, want %+v", name, rec, want)
						continue
					}
					plan = want.Plan
				} else if rec != nil {
					t.Errorf("%s: a recommendation for a technique that is not auto", name)
				}
				if !ok {
					continue
				}
				want, err := plan.Permute(g, kind)
				if err != nil {
					t.Fatal(err)
				}
				if identity := len(plan.Stages()) == 0; (perm == nil) != identity {
					t.Errorf("%s: nil permutation = %v for a plan whose identity = %v", name, perm == nil, identity)
				} else if perm == nil {
					perm = Identity(g.NumVertices())
				}
				if !slices.Equal(perm, want) {
					t.Errorf("%s: permutation differs from the plan's", name)
				}
			}
		}
	}
}
