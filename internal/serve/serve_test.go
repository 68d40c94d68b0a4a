package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	pai "repro"
	"repro/internal/analyze"
	"repro/internal/serve"
)

// newTestServer builds a Server over a real cached engine and returns it
// with its httptest host.
func newTestServer(t *testing.T, mutate func(*serve.Config)) (*serve.Server, *httptest.Server) {
	t.Helper()
	eng, err := pai.New(pai.WithConfig(pai.BaselineConfig()), pai.WithCache(4096))
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.Config{
		Engine:      eng,
		WindowWidth: 10 * time.Second,
		// The stamped test traces span ~0.5s per job; 64 windows of 10s
		// hold the longest one without rotation.
		WindowCount: 64,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// generated is an arrival-stamped generated trace.
func generated(t *testing.T, jobs int, seed int64) *pai.Trace {
	t.Helper()
	p := pai.DefaultTraceParams()
	p.NumJobs = jobs
	p.Seed = seed
	p.ArrivalRate = 7200 // mean gap 0.5s -> ~10s windows fill quickly
	tr, err := pai.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func ndjson(t *testing.T, tr *pai.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stampedTrace renders an arrival-stamped generated trace as NDJSON.
func stampedTrace(t *testing.T, jobs int, seed int64) []byte {
	t.Helper()
	return ndjson(t, generated(t, jobs, seed))
}

func upload(t *testing.T, ts *httptest.Server, tenant string, body []byte) map[string]any {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/tenants/"+tenant+"/traces",
		"application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload to %q: status %d: %s", tenant, resp.StatusCode, b)
	}
	var out map[string]any
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("upload response %q: %v", b, err)
	}
	return out
}

// TestUploadColumnarTrace: a colbin-encoded upload under a generic
// Content-Type is sniffed from its magic bytes and evaluated identically
// to the same records uploaded as NDJSON.
func TestUploadColumnarTrace(t *testing.T) {
	_, ts := newTestServer(t, nil)
	nd := stampedTrace(t, 300, 9)
	src, err := pai.OpenTraceSource(bytes.NewReader(nd), "ndjson")
	if err != nil {
		t.Fatal(err)
	}
	var cb bytes.Buffer
	cw := pai.NewColumnWriter(&cb)
	for {
		f, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/tenants/col/traces",
		"application/octet-stream", bytes.NewReader(cb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("columnar upload: status %d: %s", resp.StatusCode, b)
	}
	var ack map[string]any
	if err := json.Unmarshal(b, &ack); err != nil {
		t.Fatal(err)
	}
	if ack["jobs"].(float64) != 300 {
		t.Fatalf("ack jobs = %v, want 300", ack["jobs"])
	}
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// TestUploadReportSnapshotRoundTrip drives the full tenant lifecycle:
// streamed upload, JSON and text reports, snapshot download and its
// round-trip through the snapshot reader.
func TestUploadReportSnapshotRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, nil)
	trace := stampedTrace(t, 800, 3)
	ack := upload(t, ts, "alpha", trace)
	if ack["jobs"].(float64) != 800 {
		t.Fatalf("ack jobs = %v, want 800", ack["jobs"])
	}

	code, body := get(t, ts.URL+"/v1/tenants/alpha/report?format=json")
	if code != http.StatusOK {
		t.Fatalf("report: status %d: %s", code, body)
	}
	var rep map[string]any
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep["schema"] != "paibench/1" {
		t.Fatalf("report schema = %v", rep["schema"])
	}
	if rep["jobs"].(float64) != 800 {
		t.Fatalf("report jobs = %v, want 800", rep["jobs"])
	}
	if rep["fidelity"] == nil || rep["cdf"] == nil {
		t.Fatalf("report missing fidelity/cdf sections: %s", body)
	}

	code, text := get(t, ts.URL+"/v1/tenants/alpha/report?window=30s")
	if code != http.StatusOK {
		t.Fatalf("text report: status %d", code)
	}
	for _, want := range []string{"Workload constitution", "Execution-time breakdown", "cNode-level overall"} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("text report missing %q:\n%s", want, text)
		}
	}

	code, snap := get(t, ts.URL+"/v1/tenants/alpha/snapshot")
	if code != http.StatusOK {
		t.Fatalf("snapshot: status %d", code)
	}
	sink, meta, err := analyze.ReadSnapshotMeta(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("snapshot frame: %v", err)
	}
	if !strings.Contains(meta, "paiserve") {
		t.Fatalf("snapshot meta %q missing provenance", meta)
	}
	if strings.Contains(meta, "alpha") {
		t.Fatalf("snapshot meta %q leaks the tenant id; cross-tenant merge would refuse", meta)
	}
	ms, ok := sink.(*analyze.MultiSink)
	if !ok {
		t.Fatalf("snapshot restored %T, want *analyze.MultiSink", sink)
	}
	var acc *analyze.BreakdownAccumulator
	for _, inner := range ms.Sinks() {
		if a, isAcc := inner.(*analyze.BreakdownAccumulator); isAcc {
			acc = a
		}
	}
	if acc == nil || acc.N() != 800 {
		t.Fatalf("restored snapshot folds %v jobs, want 800", acc)
	}
}

// TestCrossTenantReportsIdentical uploads the identical trace to two
// tenants: their rings partition identically, so the deterministic report
// sections must match exactly — the identity the CI e2e gates with
// benchdiff -fidelity-only.
func TestCrossTenantReportsIdentical(t *testing.T) {
	_, ts := newTestServer(t, nil)
	trace := stampedTrace(t, 600, 5)
	upload(t, ts, "alpha", trace)
	upload(t, ts, "beta", trace)

	var reps [2]map[string]any
	for i, tenant := range []string{"alpha", "beta"} {
		code, body := get(t, ts.URL+"/v1/tenants/"+tenant+"/report?format=json")
		if code != http.StatusOK {
			t.Fatalf("report %s: status %d", tenant, code)
		}
		if err := json.Unmarshal(body, &reps[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, section := range []string{"fidelity", "cdf", "projection", "jobs"} {
		if !reflect.DeepEqual(reps[0][section], reps[1][section]) {
			t.Fatalf("section %q differs between identical tenants:\n a: %v\n b: %v",
				section, reps[0][section], reps[1][section])
		}
	}
	// The second tenant's records are cache hits: same engine, same
	// feature content.
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m["cache_hits"].(float64) == 0 {
		t.Fatal("no cache hits after duplicate upload; engine cache not shared")
	}
	tenants := m["tenants"].(map[string]any)
	if len(tenants) != 2 {
		t.Fatalf("metrics lists %d tenants, want 2", len(tenants))
	}
	if tenants["alpha"].(map[string]any)["jobs"].(float64) != 600 {
		t.Fatalf("tenant alpha metrics: %v", tenants["alpha"])
	}
}

// TestUploadTooLargeRejected pins the MaxBytesReader bound: an
// over-budget body must yield 413, not a partial fold.
func TestUploadTooLargeRejected(t *testing.T) {
	_, ts := newTestServer(t, func(c *serve.Config) { c.MaxUploadBytes = 2048 })
	trace := stampedTrace(t, 100, 1)
	resp, err := http.Post(ts.URL+"/v1/tenants/big/traces",
		"application/x-ndjson", bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, b)
	}
}

// TestConcurrentUploadLimit pins the per-tenant semaphore: with one slot
// held open by a stalled upload, a second upload is refused with 429.
func TestConcurrentUploadLimit(t *testing.T) {
	_, ts := newTestServer(t, func(c *serve.Config) { c.TenantUploads = 1 })
	pr, pw := io.Pipe()
	// Every early t.Fatal must still end the stalled upload, or its handler
	// never returns and the server's Close waits for the test timeout.
	defer pw.Close()
	errc := make(chan error, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/tenants/slow/traces", pr)
		if err != nil {
			errc <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	// Feed one record so the slow upload is inside the handler, then stall.
	line := stampedTrace(t, 1, 1)
	if _, err := pw.Write(line); err != nil {
		t.Fatal(err)
	}
	var blocked *http.Response
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/v1/tenants/slow/traces",
			"application/x-ndjson", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			blocked = resp
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("second upload never hit the semaphore (last status %d)", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if blocked.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", blocked.StatusCode)
	}
	pw.Close()
	if err := <-errc; err != nil {
		t.Fatalf("stalled upload failed: %v", err)
	}
}

// TestBadRequests pins the 4xx surface: malformed records with line info,
// unknown tenants, bad tenant ids, bad query params.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Post(ts.URL+"/v1/tenants/x/traces", "application/x-ndjson",
		strings.NewReader("{\"name\":\"broken\"\n"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed upload: status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(b), "line 1") {
		t.Fatalf("malformed upload error %q carries no line number", b)
	}

	if code, _ := get(t, ts.URL+"/v1/tenants/ghost/report"); code != http.StatusNotFound {
		t.Fatalf("unknown tenant report: status %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/v1/tenants/ghost/snapshot"); code != http.StatusNotFound {
		t.Fatalf("unknown tenant snapshot: status %d, want 404", code)
	}
	resp, err = http.Post(ts.URL+"/v1/tenants/bad%2Fid/traces", "application/x-ndjson",
		strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad tenant id: status %d, want 400", resp.StatusCode)
	}
	upload(t, ts, "x2", stampedTrace(t, 10, 2))
	if code, _ := get(t, ts.URL+"/v1/tenants/x2/report?window=banana"); code != http.StatusBadRequest {
		t.Fatalf("bad window: status %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/v1/tenants/x2/report?format=yaml"); code != http.StatusBadRequest {
		t.Fatalf("bad format: status %d, want 400", code)
	}
}

// TestHealthzAndVersion pins the liveness and identification endpoints.
func TestHealthzAndVersion(t *testing.T) {
	_, ts := newTestServer(t, nil)
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", code, body)
	}
	code, body = get(t, ts.URL+"/version")
	if code != http.StatusOK {
		t.Fatalf("version: status %d", code)
	}
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v["go"] == "" {
		t.Fatalf("version body %s missing go field", body)
	}
}

// TestFlushStateWritesSnapshots checks the drain flush writes one readable
// framed snapshot per non-empty tenant.
func TestFlushStateWritesSnapshots(t *testing.T) {
	s, ts := newTestServer(t, nil)
	upload(t, ts, "alpha", stampedTrace(t, 50, 9))
	upload(t, ts, "beta", stampedTrace(t, 70, 10))
	dir := t.TempDir()
	if err := s.FlushState(dir); err != nil {
		t.Fatal(err)
	}
	for tenant, jobs := range map[string]int{"alpha": 50, "beta": 70} {
		b, err := os.ReadFile(filepath.Join(dir, tenant+".snap"))
		if err != nil {
			t.Fatal(err)
		}
		sink, _, err := analyze.ReadSnapshotMeta(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("flushed snapshot %s: %v", tenant, err)
		}
		ms := sink.(*analyze.MultiSink)
		var n int
		for _, inner := range ms.Sinks() {
			if a, ok := inner.(*analyze.BreakdownAccumulator); ok {
				n = a.N()
			}
		}
		if n != jobs {
			t.Fatalf("flushed %s folds %d jobs, want %d", tenant, n, jobs)
		}
	}
}

// TestWindowedReportMatchesFullWhenRingFits checks a ?window= spanning the
// whole stream equals the full-ring report byte for byte.
func TestWindowedReportMatchesFullWhenRingFits(t *testing.T) {
	_, ts := newTestServer(t, nil)
	upload(t, ts, "w", stampedTrace(t, 400, 13))
	_, full := get(t, ts.URL+"/v1/tenants/w/report?format=json")
	_, windowed := get(t, ts.URL+"/v1/tenants/w/report?format=json&window=2000s")
	if !bytes.Equal(full, windowed) {
		t.Fatalf("full-ring report differs from whole-span windowed report:\n%s\n%s", full, windowed)
	}
}
