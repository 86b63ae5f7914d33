package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"graphreorder/internal/graph"
	"graphreorder/internal/server"
)

// LocalOptions configures an in-process cluster.
type LocalOptions struct {
	// Shards is the partition count (required).
	Shards int
	// Replicas is the member count per shard including the primary
	// (default 1: no replication, a shard kill is fatal).
	Replicas int
	// Strategy/MaxReplicas configure the partitioner (see Options).
	Strategy    string
	MaxReplicas int
	// Technique is the per-shard reordering applied to each subgraph
	// (default "auto": every shard runs the skew-gated advisor on its own
	// slice of the graph).
	Technique string
	// Workers is the engine parallelism for partitioning and shard builds.
	Workers int
	// Dir receives the on-disk layout (required; the caller owns it).
	Dir string
	// HealthEvery is the router's health-check period (default 250ms;
	// selftests shrink it so promotion happens within the run).
	HealthEvery time.Duration
	// Logger receives router and lifecycle logs; nil discards.
	Logger *slog.Logger
}

// member is one shard process stand-in: a full graphd server on its own
// loopback listener. Kill closes the listener and every connection, the
// same failure surface a crashed process presents to the router.
type member struct {
	srv *server.Server
	hs  *http.Server
	url string

	mu     sync.Mutex
	killed bool
}

func (m *member) kill() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.killed {
		return
	}
	m.killed = true
	m.hs.Close()
}

// Local is an in-process cluster: shard members on real 127.0.0.1
// listeners behind a Router that is itself served over HTTP. Everything
// crosses real TCP connections, so failover, trace propagation and the
// wire format are exercised exactly as a multi-process deployment would.
type Local struct {
	Router    *Router
	RouterURL string
	Layout    *Layout
	Placement *Placement
	Balance   BalanceReport

	routerHTTP *http.Server
	shards     [][]*member
}

func serveOnLoopback(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), nil
}

// StartLocal partitions g, boots Shards×Replicas graphd members plus a
// router, and publishes cluster epoch 1 (with the full barrier). On
// return every read route answers merged results.
func StartLocal(ctx context.Context, g *graph.Graph, opt LocalOptions) (*Local, error) {
	if opt.Dir == "" {
		return nil, errors.New("cluster: StartLocal needs a layout dir")
	}
	if opt.Replicas < 1 {
		opt.Replicas = 1
	}
	if opt.Technique == "" {
		opt.Technique = "auto"
	}

	res, err := Partition(g, Options{
		Shards:      opt.Shards,
		Strategy:    opt.Strategy,
		MaxReplicas: opt.MaxReplicas,
		Workers:     opt.Workers,
	})
	if err != nil {
		return nil, err
	}
	return startLocal(ctx, g, res, opt)
}

// startLocal is StartLocal from a finished partition. Nothing it returns
// points into res: the shard subgraphs are written to the layout and then
// left to the collector, so the cluster keeps only the placement and the
// members' own snapshots.
func startLocal(ctx context.Context, g *graph.Graph, res *Result, opt LocalOptions) (*Local, error) {
	ranks, iters, checksum, err := GlobalRanks(ctx, g, opt.Workers)
	if err != nil {
		return nil, err
	}
	lay, err := WriteLayout(res, opt.Dir, ranks, iters, checksum)
	if err != nil {
		return nil, err
	}

	placement := res.Placement
	l := &Local{Layout: lay, Placement: &placement, Balance: res.Balance}
	ok := false
	defer func() {
		if !ok {
			l.Close()
		}
	}()

	endpoints := make([][]string, opt.Shards)
	for s := 0; s < opt.Shards; s++ {
		var ms []*member
		for i := 0; i < opt.Replicas; i++ {
			srv := server.New(server.Config{Workers: opt.Workers, AllowPathLoads: true})
			hs, url, err := serveOnLoopback(srv.Handler())
			if err != nil {
				return nil, err
			}
			ms = append(ms, &member{srv: srv, hs: hs, url: url})
			endpoints[s] = append(endpoints[s], url)
		}
		l.shards = append(l.shards, ms)
	}

	rt, err := NewRouter(RouterConfig{
		Placement:   l.Placement,
		Endpoints:   endpoints,
		HealthEvery: opt.HealthEvery,
		Logger:      opt.Logger,
	})
	if err != nil {
		return nil, err
	}
	l.Router = rt
	l.routerHTTP, l.RouterURL, err = serveOnLoopback(rt.Handler())
	if err != nil {
		return nil, err
	}

	specs := make([]server.BuildSpec, opt.Shards)
	for s := range specs {
		specs[s] = server.BuildSpec{
			Path:      lay.GraphPaths[s],
			RanksPath: lay.RankPaths[s],
			Technique: opt.Technique,
		}
	}
	if _, err := rt.PublishEpoch(ctx, specs); err != nil {
		return nil, err
	}
	ok = true
	return l, nil
}

// MemberURL returns member i of shard s (0 is the boot-time primary).
func (l *Local) MemberURL(s, i int) string { return l.shards[s][i].url }

// Kill abruptly downs member i of shard s: listener and every open
// connection close immediately, in-flight requests on it fail. The
// router's failover keeps the cluster answering when the shard has a
// living replica.
func (l *Local) Kill(s, i int) { l.shards[s][i].kill() }

// Close tears the cluster down: router first (stops fanout), then every
// still-living member.
func (l *Local) Close() {
	if l.Router != nil {
		l.Router.Close()
	}
	if l.routerHTTP != nil {
		l.routerHTTP.Close()
	}
	for _, ms := range l.shards {
		for _, m := range ms {
			m.kill()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			m.srv.Shutdown(ctx)
			cancel()
		}
	}
}

// Endpoints returns the member URL sets, shard-major — what a
// process-mode runner would pass to NewRouter.
func (l *Local) Endpoints() [][]string {
	out := make([][]string, len(l.shards))
	for s, ms := range l.shards {
		for _, m := range ms {
			out[s] = append(out[s], m.url)
		}
	}
	return out
}

// String summarizes the cluster for logs.
func (l *Local) String() string {
	return fmt.Sprintf("cluster{%d shards, router %s}", len(l.shards), l.RouterURL)
}
