package serve_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	pai "repro"
	"repro/internal/serve"
	"repro/internal/window"
)

// TestJSONReportGolden pins the bytes of the format=json report over a
// late-heavy upload into an 8-window ring: late records into older windows,
// rotation, and jobs too old for the ring. How the ring stores its windows
// and where the report sections are built are free to change; these bytes
// are not.
func TestJSONReportGolden(t *testing.T) {
	eng, err := pai.New(pai.WithConfig(pai.BaselineConfig()), pai.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config{Engine: eng, WindowWidth: 10 * time.Second, WindowCount: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	tr := generated(t, 900, 17)
	for i := range tr.Jobs {
		a := &tr.Jobs[i].ArrivalSec
		if i%11 == 10 && *a > 35 {
			*a -= 35 // three or four windows back
		}
		if i%50 == 25 && *a > 120 {
			*a -= 120 // older than the ring
		}
	}
	upload(t, ts, "gold", ndjson(t, tr))
	_, body := get(t, ts.URL+"/metrics")
	var m struct {
		Tenants map[string]window.Stats `json:"tenants"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if st := m.Tenants["gold"]; st.Late == 0 || st.Dropped == 0 || st.Rotated == 0 {
		t.Fatalf("golden upload misses a ring branch: %+v", st)
	}
	want := map[string]string{
		"format=json":            "efd1a1de32486915a1435fd3d9e71629c6ade40a0c07a1ba1fc90706be7a3c77",
		"format=json&window=30s": "d85de40fba69dd6bbe4be74802cfa0a9a07a16d0e364eb8bb6174bc6b69d4763",
	}
	for q, w := range want {
		code, body := get(t, ts.URL+"/v1/tenants/gold/report?"+q)
		if code != http.StatusOK {
			t.Fatalf("report?%s: status %d: %s", q, code, body)
		}
		s := sha256.Sum256(body)
		if got := hex.EncodeToString(s[:]); got != w {
			t.Errorf("report?%s: sha256 %s, want %s", q, got, w)
		}
	}
}
