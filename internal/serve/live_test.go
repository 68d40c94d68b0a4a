package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"testing"

	pai "repro"
	"repro/internal/analyze"
	"repro/internal/serve"
	"repro/internal/window"
)

// TestConcurrentLateUploadsMatchOfflineFold makes every window of a ring
// mutable at once: two goroutines upload late-heavy NDJSON to one tenant
// while a third keeps fetching /report and /snapshot. The uploaders own
// disjoint windows (even and odd), so each window still sees its records in
// one deterministic order, and the ring holds the whole stream, so nothing
// is dropped whatever the interleaving. The final snapshot must equal the
// offline per-window fold. Run under -race, this is the check that a live
// window behind the head is never read and written at once.
func TestConcurrentLateUploadsMatchOfflineFold(t *testing.T) {
	const width = 10.0
	_, ts := newTestServer(t, func(c *serve.Config) { c.WindowCount = 128 })
	tr := generated(t, 1000, 23)
	windowOf := func(f pai.Features) int64 { return int64(f.ArrivalSec / width) }
	var streams [2][]pai.Features
	for _, f := range tr.Jobs {
		owner := windowOf(f) % 2
		if n := len(streams[owner]); n%7 == 6 && f.ArrivalSec > 2*width {
			f.ArrivalSec -= 2 * width // two windows back: same owner
		}
		streams[owner] = append(streams[owner], f)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for ctx.Err() == nil {
			for _, path := range []string{"/report?format=json", "/report?window=30s", "/snapshot"} {
				resp, err := http.Get(ts.URL + "/v1/tenants/live" + path)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}
	}()
	var uploaders sync.WaitGroup
	for _, stream := range streams {
		uploaders.Add(1)
		go func(jobs []pai.Features) {
			defer uploaders.Done()
			for lo := 0; lo < len(jobs); lo += 60 {
				chunk := jobs[lo:min(lo+60, len(jobs))]
				var buf bytes.Buffer
				if err := (&pai.Trace{Jobs: chunk}).WriteNDJSON(&buf); err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(ts.URL+"/v1/tenants/live/traces", "application/x-ndjson", &buf)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("upload: status %d", resp.StatusCode)
					return
				}
			}
		}(stream)
	}
	uploaders.Wait()
	cancel()
	readers.Wait()
	if t.Failed() {
		return
	}

	var m struct {
		Tenants map[string]window.Stats `json:"tenants"`
	}
	if _, body := get(t, ts.URL+"/metrics"); json.Unmarshal(body, &m) != nil || m.Tenants["live"].Late == 0 {
		t.Fatalf("no late arrivals recorded: %+v", m.Tenants["live"])
	}
	code, frame := get(t, ts.URL+"/v1/tenants/live/snapshot")
	if code != http.StatusOK {
		t.Fatalf("snapshot: status %d", code)
	}
	_, meta, err := analyze.ReadSnapshotMeta(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}

	// Offline: one shard per window, ascending, each in its uploader's order.
	parts := map[int64][]pai.Features{}
	for _, stream := range streams {
		for _, f := range stream {
			parts[windowOf(f)] = append(parts[windowOf(f)], f)
		}
	}
	var order []int64
	for w := range parts {
		order = append(order, w)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	var srcs []pai.JobSource
	for _, w := range order {
		srcs = append(srcs, pai.NewSliceJobSource(parts[w]))
	}
	eng, err := pai.New(pai.WithConfig(pai.BaselineConfig()))
	if err != nil {
		t.Fatal(err)
	}
	offline, counts, err := eng.EvaluateSourcesInto(context.Background(),
		func() (pai.Sink, error) { return eng.NewReportSink(pai.ToAllReduceLocal) }, srcs...)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for _, c := range counts {
		n += c
	}
	if n != len(tr.Jobs) {
		t.Fatalf("offline folded %d jobs, want %d", n, len(tr.Jobs))
	}
	var want bytes.Buffer
	if err := analyze.WriteSnapshotMeta(&want, offline, meta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, want.Bytes()) {
		t.Fatal("tenant snapshot after concurrent late uploads differs from the offline per-window fold")
	}
}
