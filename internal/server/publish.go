package server

import (
	"context"
	"time"

	"graphreorder"
	"graphreorder/internal/csrz"
	"graphreorder/internal/graph"
	"graphreorder/internal/obs"
	"graphreorder/internal/reorder"
)

// The publish pipeline: the one code path that turns a view of a graph
// into an unpublished Snapshot. A snapshot build and a mutable snapshot's
// refresher both run publishStages; they differ in their view stage and
// in the inputs they hand the job, and each publishes the result itself.

// publishSpec holds what every snapshot of one build, or of one live
// graph, shares.
type publishSpec struct {
	name     string
	techName string // normalized technique spec: "original", "dbg", "auto", ...
	kind     graph.DegreeKind
	source   string
	live     bool // mutable: a refresher republishes it after every write batch
	maxIters int  // PageRank precompute bound (0 = default)
	// backend is plain, compressed or auto; the encode stage resolves
	// auto in place, so a finished job's spec names the backend it served.
	backend string
	// ranksPath, when set, is a shard rank file the precompute loads
	// instead of running PageRank.
	ranksPath string
}

// publishJob carries one snapshot through publishStages: each stage reads
// what the earlier ones left and fills in its own part of snap.
type publishJob struct {
	publishSpec
	store *Store
	// view is the first stage. It leaves the layout in g — or, passing a
	// .csrz load through, in cz — with its permutation in snap.perm (nil
	// for the order as loaded), and may leave advice and warm-start ranks
	// behind.
	view func(*publishJob) (tag string, err error)
	// begin, when set, runs before every stage; end, when set, after every
	// stage that succeeded, with the tag its span carries and its start.
	begin  func(stage string)
	end    func(stage, tag string, start time.Time)
	traces []*obs.Trace // each gets one round per precompute iteration

	g    *graph.Graph // the plain layout; nil while a .csrz load passes through
	cz   *csrz.Graph  // the compressed layout, when there is one
	warm []float64    // the precompute's start, in the layout's IDs; nil starts cold
	snap *Snapshot    // unpublished until the caller publishes it
}

// publishStages is what a publish does, in order. A stage returns a tag
// for its span (the view's path) or "".
var publishStages = []struct {
	name string
	run  func(*publishJob) (tag string, err error)
}{
	{"view", func(p *publishJob) (string, error) { return p.view(p) }},
	{"precompute", (*publishJob).precompute},
	{"encode", (*publishJob).encode},
	{"assemble", (*publishJob).assemble},
}

// run executes publishStages and returns the unpublished snapshot.
func (p *publishJob) run() (*Snapshot, error) {
	p.snap = &Snapshot{name: p.name, technique: p.techName, degree: p.kind, source: p.source, live: p.live}
	for _, stage := range publishStages {
		if p.begin != nil {
			p.begin(stage.name)
		}
		start := time.Now()
		tag, err := stage.run(p)
		if err != nil {
			return nil, err
		}
		if p.end != nil {
			p.end(stage.name, tag, start)
		}
	}
	return p.snap, nil
}

// layout is the graph the stages read: the plain form when there is one
// (cheapest), the compressed one otherwise — the engine's results and the
// quality report are bit-identical across backends.
func (p *publishJob) layout() graph.View {
	if p.g != nil {
		return p.g
	}
	return p.cz
}

// decode replaces a .csrz load by its plain form, releasing the mapping.
func (p *publishJob) decode() error {
	g, err := p.cz.Decode()
	p.cz.Close()
	p.g, p.cz = g, nil
	return err
}

// precompute computes PageRank once, so point rank lookups and top-k
// queries are O(1)/O(n log k) with no traversal. It runs to completion
// (background context): a half-built snapshot is useless. A warm start —
// the previous epoch's ranks, which a small batch leaves within an
// iteration or two of the new fixed point — lands within PageRank's
// tolerance of a cold run, not bit-equal to it. A shard (ranksPath) loads
// the globally computed ranks instead and remaps them into the layout's
// order.
func (p *publishJob) precompute() (string, error) {
	start := time.Now()
	s := p.snap
	if p.ranksPath != "" {
		rf, err := readRankFile(p.ranksPath, p.layout().NumVertices())
		if err != nil {
			return "", err
		}
		s.ranks, s.owned = rf.ranks, rf.owned
		if s.perm != nil {
			// The file is in original-ID space.
			s.ranks = make([]float64, len(rf.ranks))
			s.owned = make([]bool, len(rf.owned))
			for o, c := range s.perm {
				s.ranks[c] = rf.ranks[o]
				s.owned[c] = rf.owned[o]
			}
		}
		s.rankIters, s.rankSum, s.externalRanks = rf.iters, rf.checksum, true
	} else {
		//lint:allow ctxflow precompute belongs to the publish, not to the request that started it
		run, err := graphreorder.Run(context.Background(), p.layout(), graphreorder.AppPR,
			graphreorder.WithMaxIters(p.maxIters), graphreorder.WithWorkers(p.store.workers),
			graphreorder.WithInitialRanks(p.warm),
			graphreorder.WithProgress(func(rs graphreorder.RoundStats) {
				for _, tr := range p.traces {
					tr.Round(rs.Edges)
				}
			}))
		if err != nil {
			return "", err
		}
		s.ranks, s.rankIters, s.rankSum = run.Ranks(), run.Iterations, run.Checksum
	}
	s.precomputeTime = time.Since(start)
	return "", nil
}

// encode materializes the serving representation of the final layout.
// "auto" becomes compressed exactly when the layout's predicted ratio
// says the bytes come back; that decision is the publish's one reader of
// the O(E) quality pass. A compressed snapshot without an encoding
// gets one (a compressed live graph re-encodes every epoch, so readers
// hot-swap between compressed epochs as between plain ones), and a plain
// one without a plain graph decodes its .csrz load.
func (p *publishJob) encode() (string, error) {
	if p.backend == backendAuto {
		p.backend = backendPlain
		if reorder.Evaluate(p.layout(), p.kind, nil).PredictedRatio >= autoCompressMinRatio {
			p.backend = backendCompressed
		}
	}
	switch {
	case p.backend == backendCompressed && p.cz == nil:
		p.cz = csrz.Encode(p.g)
	case p.backend == backendPlain && p.g == nil:
		return "", p.decode()
	}
	return "", nil
}

// assemble finishes the snapshot: the layout's packing report, the
// representation it serves, its space accounting and a fresh epoch.
func (p *publishJob) assemble() (string, error) {
	s := p.snap
	s.quality = reorder.EvaluatePacking(p.layout(), p.kind, nil)
	s.graph, s.cz = p.g, p.cz
	if p.cz != nil {
		s.graph = p.cz
	}
	s.finishBackend()
	s.epoch, s.built = p.store.nextID.Add(1), time.Now()
	return "", nil
}
