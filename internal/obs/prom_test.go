package obs

import (
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphreorder/internal/stats"
)

// scrapeTable renders fams over scrape through WriteFamilies.
func scrapeTable[S any](t *testing.T, scrape S, fams []Family[S]) string {
	t.Helper()
	rec := httptest.NewRecorder()
	WriteFamilies(rec, scrape, fams)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type %q", ct)
	}
	return rec.Body.String()
}

func TestPromWriterPassesValidator(t *testing.T) {
	var lat stats.LatencyHist
	lat.Observe(1500 * time.Microsecond)
	out := scrapeTable(t, 12.0, []Family[float64]{
		{"graphd_requests_total", "counter", "Requests per route.", func(_ float64, s *Series) {
			s.Add(42, Label{"route", "neighbors"})
			s.Add(7, Label{"route", "sssp"})
		}},
		Gauge("graphd_goroutines", "Current goroutine count.", func(v float64) float64 { return v }),
		{"graphd_latency_seconds", "summary", "Latency with \"quotes\" and \\slashes\nnewline.", func(_ float64, s *Series) {
			s.Latency(&lat, Label{"route", "a\"b\\c\nd"})
		}},
		{"graphd_oddballs", "gauge", "Edge-case values.", func(_ float64, s *Series) {
			s.Add(math.NaN(), Label{"kind", "nan"})
			s.Add(math.Inf(1), Label{"kind", "inf"})
			s.Add(math.Inf(-1), Label{"kind", "neginf"})
		}},
	})
	samples, families, err := ValidateExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("own output failed validation: %v\n%s", err, out)
	}
	if samples != 11 {
		t.Fatalf("samples = %d, want 11\n%s", samples, out)
	}
	if families["graphd_requests_total"] != "counter" || families["graphd_latency_seconds"] != "summary" {
		t.Fatalf("families = %v", families)
	}
	if !strings.Contains(out, "graphd_latency_seconds_count{route=\"a\\\"b\\\\c\\nd\"} 1\n") {
		t.Fatalf("summary count or label escaping wrong:\n%s", out)
	}
}

// TestPromDuplicateFamilyDeclaredOnce: a family's HELP and TYPE go out
// once however many samples it has, and not at all when it has none.
func TestPromDuplicateFamilyDeclaredOnce(t *testing.T) {
	out := scrapeTable(t, 3, []Family[int]{
		{"x_total", "counter", "first", func(n int, s *Series) {
			for i := range n {
				s.Add(float64(i), Label{"i", strconv.Itoa(i)})
			}
		}},
		{"empty_total", "counter", "no samples", func(int, *Series) {}},
	})
	if strings.Count(out, "# TYPE x_total ") != 1 || strings.Count(out, "# HELP x_total ") != 1 {
		t.Fatalf("x_total declared other than once:\n%s", out)
	}
	if strings.Contains(out, "empty_total") {
		t.Fatalf("a family with no sample was declared:\n%s", out)
	}
	if _, _, err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"no samples", "# HELP x_total help\n# TYPE x_total counter\n"},
		{"sample without TYPE", "orphan_total 1\n"},
		{"bad metric name", "# TYPE 1bad counter\n1bad 1\n"},
		{"bad type", "# TYPE x_total histo\nx_total 1\n"},
		{"duplicate TYPE", "# TYPE x_total counter\n# TYPE x_total counter\nx_total 1\n"},
		{"duplicate HELP", "# HELP x_total a\n# HELP x_total b\n# TYPE x_total counter\nx_total 1\n"},
		{"bad value", "# TYPE x_total counter\nx_total abc\n"},
		{"missing value", "# TYPE x_total counter\nx_total\n"},
		{"trailing junk", "# TYPE x_total counter\nx_total 1 2 3\n"},
		{"unterminated labels", "# TYPE x_total counter\nx_total{route=\"n\" 1\n"},
		{"unquoted label value", "# TYPE x_total counter\nx_total{route=n} 1\n"},
		{"bad label name", "# TYPE x_total counter\nx_total{__route=\"n\"} 1\n"},
		{"label missing eq", "# TYPE x_total counter\nx_total{route} 1\n"},
		{"bucket on counter", "# TYPE x counter\nx_bucket{le=\"1\"} 1\n"},
	}
	for _, tc := range cases {
		if _, _, err := ValidateExposition(strings.NewReader(tc.input)); err == nil {
			t.Errorf("%s: validator accepted bad input:\n%s", tc.name, tc.input)
		}
	}
}

func TestValidateExpositionAccepts(t *testing.T) {
	input := "" +
		"# scrape generated by graphd\n" +
		"# HELP g_lat request latency\n" +
		"# TYPE g_lat summary\n" +
		"g_lat{route=\"a\",quantile=\"0.5\"} 0.001\n" +
		"g_lat{route=\"esc\\\"aped\",quantile=\"0.99\"} NaN\n" +
		"g_lat_sum{route=\"a\"} 1.25\n" +
		"g_lat_count{route=\"a\"} 10\n" +
		"# TYPE g_up gauge\n" +
		"g_up 1 1700000000000\n" +
		"# TYPE h histogram\n" +
		"h_bucket{le=\"+Inf\"} 3\n" +
		"h_sum 0.5\n" +
		"h_count 3\n"
	samples, families, err := ValidateExposition(strings.NewReader(input))
	if err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
	if samples != 8 {
		t.Fatalf("samples = %d, want 8", samples)
	}
	if families["g_lat"] != "summary" || families["g_up"] != "gauge" || families["h"] != "histogram" {
		t.Fatalf("families = %v", families)
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	got := SortedKeys(m)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("SortedKeys = %v", got)
	}
}
