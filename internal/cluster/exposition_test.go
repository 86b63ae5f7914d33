package cluster

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"graphreorder/internal/obs"
	"graphreorder/internal/server"
)

// TestNodePromExposition and TestClusterPromExposition hold each tier's
// scraped Prometheus families to README's "Prometheus exposition" table
// in both directions, and the table's CI-gate rows to CI's promcheck
// -require lists. Both live here because this package starts nodes and
// routers alike, and both read the one table.

var (
	tableRow   = regexp.MustCompile("^\\| `(graphd_[a-z_]+)` \\| ([a-zA-Z ]+) \\|")
	requireArg = regexp.MustCompile(`-require (\S+)`)
)

// readmeTable returns README's table rows of one tier (the router's are
// the graphd_cluster_ families): family → consumer kind.
func readmeTable(t *testing.T, router bool) map[string]string {
	t.Helper()
	body, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]string)
	for _, line := range strings.Split(string(body), "\n") {
		m := tableRow.FindStringSubmatch(line)
		if m == nil || strings.HasPrefix(m[1], "graphd_cluster_") != router {
			continue
		}
		if _, dup := rows[m[1]]; dup {
			t.Errorf("README lists %s twice", m[1])
		}
		rows[m[1]] = m[2]
	}
	return rows
}

// ciRequired returns the families of one tier that CI's promcheck steps
// -require.
func ciRequired(t *testing.T, router bool) map[string]bool {
	t.Helper()
	body, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	required := make(map[string]bool)
	for _, m := range requireArg.FindAllStringSubmatch(string(body), -1) {
		for _, fam := range strings.Split(m[1], ",") {
			if strings.HasPrefix(fam, "graphd_cluster_") == router {
				required[fam] = true
			}
		}
	}
	if len(required) == 0 {
		t.Fatal("no promcheck -require list in CI")
	}
	return required
}

// checkExposition scrapes base's Prometheus form and holds it to the
// README table and CI's -require lists: every exposed family has a row,
// every row a family with samples in this scrape (a family without one
// is not exposed), and the rows marked "CI gate" are exactly the
// families CI requires.
func checkExposition(t *testing.T, base string, router bool) {
	t.Helper()
	resp, err := http.Get(base + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	_, families, err := obs.ValidateExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	rows := readmeTable(t, router)
	for fam := range families {
		if _, ok := rows[fam]; !ok {
			t.Errorf("family %s is exposed but README's table has no row for it", fam)
		}
	}
	required := ciRequired(t, router)
	for fam, kind := range rows {
		if _, ok := families[fam]; !ok {
			t.Errorf("README's table lists %s, which is not exposed", fam)
		}
		switch kind {
		case "CI gate":
			if !required[fam] {
				t.Errorf("README marks %s a CI gate, but no promcheck -require list names it", fam)
			}
		case "selftest", "bench", "recipe":
		default:
			t.Errorf("README row %s: consumer %q is not one of CI gate, selftest, bench, recipe", fam, kind)
		}
	}
	for fam := range required {
		if rows[fam] != "CI gate" {
			t.Errorf("CI requires %s, but README's row does not mark it a CI gate", fam)
		}
	}
}

// TestNodePromExposition scrapes a node with a current snapshot, an
// applied write and a WAL.
func TestNodePromExposition(t *testing.T) {
	srv := server.New(server.Config{Workers: 1, QueryTimeout: 30 * time.Second})
	t.Cleanup(srv.Store().CloseLive)
	if err := srv.Store().SetDurability(server.Durability{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Store().Build(server.BuildSpec{
		Name: "live", Dataset: "uni", Scale: "tiny", Technique: "dbg", Mutable: true,
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/snapshots/live/edges", "application/json",
		strings.NewReader(`{"updates":[{"src":0,"dst":1,"weight":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("write: %d", resp.StatusCode)
	}
	checkExposition(t, ts.URL, false)
}

// TestClusterPromExposition scrapes a router once its health loop has
// polled every shard's quality.
func TestClusterPromExposition(t *testing.T) {
	cl := startCluster(t, genGraph(t, "sd", "tiny"), LocalOptions{Shards: 2, HealthEvery: 20 * time.Millisecond})
	httpJSON(t, cl.RouterURL+"/v1/query/topk?k=4", nil)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		polled := true
		for _, st := range routerReport(t, cl).PerShard {
			polled = polled && st.Quality != nil
		}
		if polled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the health loop never polled every shard's quality")
		}
	}
	checkExposition(t, cl.RouterURL, true)
}
