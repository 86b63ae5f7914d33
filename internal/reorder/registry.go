package reorder

import (
	"fmt"
	"strconv"
	"strings"
)

// ByName returns the technique (or pipeline) for a CLI/harness spec.
// Recognized single-stage names (case-insensitive): original, sort,
// hubsort, hubcluster, hubsort-o, hubcluster-o, dbg, gorder, gorder+dbg,
// rv, rcb-<n>, auto (the skew-gated advisor), and the parameterized
// dbg:<k> (DBG with k geometric groups, k >= 2). Stages chain with "|"
// into a pipeline: "dbg|gorder" runs DBG's coarse grouping first, then
// Gorder over the grouped layout.
func ByName(name string) (Technique, error) {
	if strings.Contains(name, "|") {
		return ParsePlan(name)
	}
	return byNameSingle(name)
}

// ParsePlan parses a pipeline spec: one or more single-stage specs joined
// by "|", applied left to right. A single stage parses to a one-stage
// plan (the identity spellings to the empty one), so ParsePlan accepts
// everything ByName does.
func ParsePlan(spec string) (*Plan, error) {
	parts := strings.Split(spec, "|")
	stages := make([]Technique, 0, len(parts))
	for _, part := range parts {
		if strings.TrimSpace(part) == "" {
			return nil, fmt.Errorf("reorder: empty stage in pipeline spec %q", spec)
		}
		t, err := byNameSingle(part)
		if err != nil {
			return nil, err
		}
		stages = append(stages, t)
	}
	return Compose(stages...), nil
}

// byNameSingle resolves one stage spec (no pipe).
func byNameSingle(name string) (Technique, error) {
	lower := strings.ToLower(strings.TrimSpace(name))
	switch lower {
	case "original", "identity", "none":
		return IdentityTechnique{}, nil
	case "sort":
		return SortTechnique{}, nil
	case "hubsort":
		return HubSort{}, nil
	case "hubcluster":
		return HubCluster{}, nil
	case "hubsort-o", "hubsorto":
		return HubSortO{}, nil
	case "hubcluster-o", "hubclustero":
		return HubClusterO{}, nil
	case "dbg":
		return NewDBG(), nil
	case "gorder":
		return Gorder{}, nil
	case "gorder+dbg", "gorderdbg":
		return Compose(Gorder{}, NewDBG()), nil
	case "rv", "random":
		return RandomVertex{Seed: 1}, nil
	case "auto":
		return Auto{}, nil
	}
	if rest, ok := strings.CutPrefix(lower, "rcb-"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("reorder: bad RCB granularity in %q", name)
		}
		return RandomCacheBlock{Seed: 1, Blocks: n}, nil
	}
	// dbg:<k> selects DBG with k geometric groups.
	if rest, ok := strings.CutPrefix(lower, "dbg:"); ok {
		k, err := strconv.Atoi(rest)
		if err != nil {
			return nil, fmt.Errorf("reorder: bad DBG group count %q in %q (want an integer >= 2)", rest, name)
		}
		return NewDBGGeometric(k)
	}
	return nil, fmt.Errorf("reorder: unknown technique %q", name)
}

// SkewAware returns the paper's four skew-aware techniques in presentation
// order: Sort, HubSort, HubCluster, DBG.
func SkewAware() []Technique {
	return []Technique{SortTechnique{}, HubSort{}, HubCluster{}, NewDBG()}
}

// Evaluated returns the five techniques of Fig. 6: the skew-aware four
// plus Gorder.
func Evaluated() []Technique {
	return append(SkewAware(), Gorder{})
}
