package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"
)

// FuzzMutateRequest posts an arbitrary body twice to the write route of a
// fresh four-vertex mutable snapshot (DBG; a post refreshes the order
// when it grows the vertex space or after one that decayed its packing,
// and patches otherwise, so the corpus takes both paths). No reply may be
// a 5xx, and every 200 receipt must count the batch: the edges it reports
// are the count before it plus the batch's insertions minus its removals.
// The committed corpus (testdata/fuzz/FuzzMutateRequest) holds the
// accepted shapes — inserts, removals, growth — and the rejected ones.
func FuzzMutateRequest(f *testing.F) {
	path := filepath.Join(f.TempDir(), "g.txt")
	if err := writeFile(path, "0 1 2\n1 2 3\n2 0 1\n2 3 4\n3 1 5\n"); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{Workers: 1, QueryTimeout: 30 * time.Second, AllowPathLoads: true})
		defer s.store.CloseLive()
		if _, err := s.store.Build(BuildSpec{Name: "live", Path: path, Technique: "dbg", Mutable: true}); err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		for post := 0; post < 2; post++ {
			before, _ := s.store.Info("live")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/snapshots/live/edges", bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("post %d: %d %s", post, rec.Code, rec.Body.String())
			}
			if rec.Code != http.StatusOK {
				continue
			}
			var req MutateRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("post %d: accepted a body that does not decode: %v", post, err)
			}
			var res MutateResult
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatalf("post %d: bad receipt %q: %v", post, rec.Body.String(), err)
			}
			want := before.Edges
			for _, u := range req.Updates {
				if u.Remove {
					want--
				} else {
					want++
				}
			}
			if res.Edges != want || res.Applied != len(req.Updates) {
				t.Fatalf("post %d: receipt has %d edges after %d applied updates, want %d edges after %d (%d before)",
					post, res.Edges, res.Applied, want, len(req.Updates), before.Edges)
			}
		}
	})
}
