package reorder

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
)

func TestParsePlanSpecs(t *testing.T) {
	cases := map[string]string{
		"dbg":             "DBG",
		"dbg|gorder":      "DBG|Gorder",
		"hubcluster|sort": "HubCluster|Sort",
		"dbg:4|gorder":    "DBG|Gorder",
		" dbg | sort ":    "DBG|Sort",
	}
	for spec, want := range cases {
		p, err := ParsePlan(spec)
		if err != nil {
			t.Errorf("ParsePlan(%q): %v", spec, err)
			continue
		}
		if p.Name() != want {
			t.Errorf("ParsePlan(%q).Name() = %q, want %q", spec, p.Name(), want)
		}
	}
	// "compress" was a terminal marker stage; the backend is BuildSpec's.
	for _, bad := range []string{"", "|", "dbg|", "|gorder", "dbg||sort", "dbg|bogus", "sort|compress", "compress"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

func TestByNameParsesPipelinesAndParams(t *testing.T) {
	// Registry parity: dbg:<k> reaches DBGWithGroups-configured DBG.
	tech, err := ByName("dbg:4")
	if err != nil {
		t.Fatal(err)
	}
	d, ok := tech.(*DBG)
	if !ok {
		t.Fatalf("dbg:4 resolved to %T, want *DBG", tech)
	}
	if d.NumGroups() != 4 {
		t.Errorf("dbg:4 has %d groups, want 4", d.NumGroups())
	}
	want, _ := NewDBGGeometric(4)
	if !reflect.DeepEqual(d.GroupBounds(), want.GroupBounds()) {
		t.Errorf("dbg:4 bounds %v != NewDBGGeometric(4) bounds %v",
			d.GroupBounds(), want.GroupBounds())
	}
	for _, bad := range []string{"dbg:", "dbg:1", "dbg:0", "dbg:-3", "dbg:x"} {
		if _, err := ByName(bad); err == nil {
			t.Errorf("ByName(%q) accepted", bad)
		} else if !strings.Contains(err.Error(), "group count") && !strings.Contains(err.Error(), "k>=2") {
			t.Errorf("ByName(%q) error %q does not explain the group count", bad, err)
		}
	}

	// Pipe specs resolve to plans; "auto" resolves to the advisor.
	if tech, err = ByName("dbg|gorder"); err != nil {
		t.Fatal(err)
	}
	if p, ok := tech.(*Plan); !ok || len(p.Stages()) != 2 {
		t.Errorf("dbg|gorder resolved to %T, want a 2-stage *Plan", tech)
	}
	if tech, err = ByName("auto"); err != nil {
		t.Fatal(err)
	}
	if _, ok := tech.(Auto); !ok {
		t.Errorf("auto resolved to %T, want Auto", tech)
	}
}

func TestComposeFlattensAndPlanOf(t *testing.T) {
	inner := Compose(NewDBG(), Gorder{})
	outer := Compose(inner, SortTechnique{}, nil)
	if got := outer.Name(); got != "DBG|Gorder|Sort" {
		t.Errorf("flattened plan name = %q", got)
	}
	if p := PlanOf(inner); p != inner {
		t.Error("PlanOf(*Plan) did not return the plan itself")
	}
	if got := PlanOf(NewDBG()).Name(); got != "DBG" {
		t.Errorf("single-stage plan name = %q", got)
	}
	if got := Compose().Name(); got != "Original" {
		t.Errorf("empty plan name = %q", got)
	}
	// The empty plan is the only identity: identity stages are dropped,
	// whichever way they are spelled.
	if got := Compose(IdentityTechnique{}, NewDBG(), IdentityTechnique{}).Name(); got != "DBG" {
		t.Errorf("plan with identity stages = %q, want DBG", got)
	}
	for _, spec := range []string{"original", "none", "identity", "none|original"} {
		p, err := ParsePlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(p.Stages()); n != 0 {
			t.Errorf("ParsePlan(%q) has %d stages, want the empty plan", spec, n)
		}
	}
}

func TestPlanPermuteMatchesManualChaining(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("lj", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	for _, stages := range [][2]Technique{
		{NewDBG(), Gorder{Window: 3}},
		{HubCluster{}, NewDBG()},
	} {
		got, err := Compose(stages[0], stages[1]).Permute(g, graph.OutDegree)
		if err != nil {
			t.Fatal(err)
		}
		p1, _ := stages[0].Permute(g, graph.OutDegree)
		g1, _ := g.Relabel(p1)
		p2, _ := stages[1].Permute(g1, graph.OutDegree)
		if !reflect.DeepEqual(got, p1.Compose(p2)) {
			t.Errorf("%s|%s: plan permutation != manual stage-by-stage composition",
				stages[0].Name(), stages[1].Name())
		}
		gc, err := g.Relabel(got)
		if err != nil {
			t.Fatal(err)
		}
		if gc.NumEdges() != g.NumEdges() {
			t.Errorf("%s|%s: composition lost edges", stages[0].Name(), stages[1].Name())
		}
	}
}

func TestPlanApplyContextCancels(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("pl", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Compose(NewDBG(), Gorder{}).ApplyContext(ctx, g, graph.OutDegree, 1); err != context.Canceled {
		t.Errorf("canceled plan apply returned %v", err)
	}
}

// registrySpecs is every spec form the registry accepts, including
// pipelines; the bijection property below must hold for all of them.
func registrySpecs() []string {
	return []string{
		"original", "sort", "hubsort", "hubcluster", "hubsort-o",
		"hubcluster-o", "dbg", "dbg:4", "dbg:8", "gorder", "gorder+dbg",
		"rv", "rcb-2", "auto",
		"dbg|gorder", "hubcluster|sort", "dbg:8|gorder", "sort|dbg|rv",
	}
}

// TestEveryRegisteredSpecYieldsBijection is the pipeline property test:
// for every registered technique and composed pipeline, at sequential and
// parallel rebuild worker counts, the permutation returned by the plan is
// a bijection over [0, n) — including the empty and single-vertex graphs.
func TestEveryRegisteredSpecYieldsBijection(t *testing.T) {
	empty, err := graph.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	single, err := graph.BuildWith(nil, graph.BuildOptions{NumVertices: 1})
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := gen.Generate(gen.MustDataset("lj", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := gen.Generate(gen.MustDataset("uni", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"empty": empty, "single": single, "lj": skewed, "uni": uniform,
	}
	for _, spec := range registrySpecs() {
		tech, err := ByName(spec)
		if err != nil {
			t.Fatalf("ByName(%q): %v", spec, err)
		}
		plan := PlanOf(tech)
		for gname, g := range graphs {
			for _, kind := range []graph.DegreeKind{graph.InDegree, graph.OutDegree} {
				for _, workers := range []int{1, 8} {
					res, err := plan.ApplyWorkers(g, kind, workers)
					if err != nil {
						t.Fatalf("%s/%s/%v/w%d: %v", spec, gname, kind, workers, err)
					}
					if len(res.Perm) != g.NumVertices() {
						t.Fatalf("%s/%s/%v/w%d: perm length %d, want %d",
							spec, gname, kind, workers, len(res.Perm), g.NumVertices())
					}
					if err := res.Perm.Validate(); err != nil {
						t.Errorf("%s/%s/%v/w%d: %v", spec, gname, kind, workers, err)
					}
					if res.Graph.NumVertices() != g.NumVertices() || res.Graph.NumEdges() != g.NumEdges() {
						t.Errorf("%s/%s/%v/w%d: relabel changed dimensions", spec, gname, kind, workers)
					}
				}
			}
		}
	}
}
