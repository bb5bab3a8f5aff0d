package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// goldenRegistry builds a registry with one of every metric kind and
// fully deterministic values.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("swift_test_ops_total", "Ops.", nil).Add(3)
	r.Gauge("swift_test_sessions", "Sessions.", Labels{"agent": "0"}).Set(2)
	r.CounterFunc("swift_test_frames_total", "Frames.", nil, func() float64 { return 4.5 })
	h := r.Histogram("swift_test_lat_seconds", "Latency.", nil)
	h.Observe(time.Second)
	return r
}

// One observation of exactly 1s lands in the bucket [939524096,
// 1073741824) ns, so every percentile interpolates to the bucket's upper
// edge: 1.073741824 s.
const goldenQuantile = "1.073741824"

func TestWritePrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP swift_test_ops_total Ops.
# TYPE swift_test_ops_total counter
swift_test_ops_total 3
# HELP swift_test_sessions Sessions.
# TYPE swift_test_sessions gauge
swift_test_sessions{agent="0"} 2
# HELP swift_test_frames_total Frames.
# TYPE swift_test_frames_total counter
swift_test_frames_total 4.5
# HELP swift_test_lat_seconds Latency.
# TYPE swift_test_lat_seconds summary
swift_test_lat_seconds{quantile="0.5"} ` + goldenQuantile + `
swift_test_lat_seconds{quantile="0.9"} ` + goldenQuantile + `
swift_test_lat_seconds{quantile="0.99"} ` + goldenQuantile + `
swift_test_lat_seconds_sum 1
swift_test_lat_seconds_count 1
`
	if got := b.String(); got != want {
		t.Errorf("prometheus output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriteJSONGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	want := `{"metrics":[` +
		`{"name":"swift_test_ops_total","type":"counter","value":3},` +
		`{"name":"swift_test_sessions","type":"gauge","labels":{"agent":"0"},"value":2},` +
		`{"name":"swift_test_frames_total","type":"counter","value":4.5},` +
		`{"name":"swift_test_lat_seconds","type":"histogram","count":1,"sum":1,"mean":1,` +
		`"min":1,"max":1,"p50":` + goldenQuantile + `,"p90":` + goldenQuantile +
		`,"p99":` + goldenQuantile + `}]}` + "\n"
	got := b.String()
	if got != want {
		t.Errorf("json output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// And it must be valid JSON.
	var doc struct {
		Metrics []map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(got), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(doc.Metrics) != 4 {
		t.Fatalf("parsed %d metrics, want 4", len(doc.Metrics))
	}
}

// TestHandler drives the HTTP surface: /metrics in both formats, /trace,
// and the pprof index.
func TestHandler(t *testing.T) {
	reg := goldenRegistry()
	ring := NewTraceRing(16)
	ring.Emit(Event{Layer: "test", Kind: "evt", Agent: -1, Msg: "hello trace"})
	srv := httptest.NewServer(Handler(reg, ring, nil))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, b.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "swift_test_ops_total 3") {
		t.Errorf("/metrics: code=%d body=%q", code, body)
	}
	if code, body := get("/metrics?format=json"); code != 200 || !strings.Contains(body, `"name":"swift_test_ops_total"`) {
		t.Errorf("/metrics?format=json: code=%d body=%q", code, body)
	}
	if code, body := get("/trace"); code != 200 || !strings.Contains(body, "hello trace") {
		t.Errorf("/trace: code=%d body=%q", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/: code=%d", code)
	}
}

// TestServe binds an ephemeral port and round-trips a scrape.
func TestServe(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", goldenRegistry(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}
