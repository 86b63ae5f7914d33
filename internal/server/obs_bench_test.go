package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// BenchmarkObservability measures the per-request cost of the
// observability layer on the cheapest route (neighbors — no cache, no
// pool), where fixed overhead is most visible: tracing fully off vs the
// production defaults (5% detailed sampling). For reading, not gating:
// the gate is obs.TestInstrumentAllocsPerRequest's exact counts, and
// the selftest separately proves end-to-end throughput holds.
func BenchmarkObservability(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"off", Config{Workers: 1, QueryTimeout: 30 * time.Second, TraceSample: -1, SlowThreshold: -1}},
		{"on", Config{Workers: 1, QueryTimeout: 30 * time.Second}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := New(tc.cfg)
			if _, err := s.store.Build(BuildSpec{Name: "main", Dataset: "uni", Scale: "tiny", Technique: "dbg"}); err != nil {
				b.Fatal(err)
			}
			h := s.Handler()
			urls := make([]string, 64)
			for i := range urls {
				urls[i] = fmt.Sprintf("/v1/query/neighbors?v=%d&limit=32", i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest("GET", urls[i%len(urls)], nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d", rec.Code)
				}
			}
		})
	}
}
