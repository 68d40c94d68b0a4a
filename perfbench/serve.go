package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The paiserve workload: open-loop NDJSON uploads of arrival-stamped jobs
// from serveTenants tenants at a fixed rate, with report GETs interleaved.
// The rate is about a sixth of the capacity the closed-loop phase
// measures on a two-vCPU machine, so that a host running at half speed
// still leaves the server short of saturation. Each upload carries
// serveLate records stamped into windows the ring has already sealed, so
// every upload takes the unseal, add and re-seal path; reports decode and
// merge sealed windows under the same tenant lock uploads hold.
const (
	serveTenants     = 4
	serveUploadJobs  = 100
	serveLate        = 1
	servePerHour     = 1600 // per tenant: four uploads fill a 15-minute window
	serveWarmUploads = 40   // per tenant: enough to fill and rotate the ring
	serveRate        = 40   // open-loop requests per second
	serveReportEvery = 5    // every fifth request is a report
	// serveCapacity is the closed-loop phase that measures jobs_per_sec.
	serveCapacity = 2 * time.Second
	// serveConns is the client's connection count; each tenant's requests
	// go over one of them, in order, so every tenant's ring sees its
	// uploads in a fixed order and its snapshot is deterministic.
	serveConns = 2
)

var serveRing = serveConfig{window: 15 * time.Minute, windows: 8}

// serveUploadsPerTenant sizes the generated uploads for a run of the given
// length: the warm-up, the open loop, and serveCapacityUploads for the
// capacity phase. A machine fast enough to exhaust them ends the capacity
// phase early.
func serveUploadsPerTenant(seconds int) int {
	perSec := float64(serveRate) * (serveReportEvery - 1) / serveReportEvery / serveTenants
	return serveWarmUploads + int(math.Ceil(perSec*float64(seconds))) + serveCapacityUploads
}

// serveCapacityUploads per tenant last the capacity phase at 400 uploads a
// second in all, over twice the capacity of a two-vCPU machine.
const serveCapacityUploads = 200

// generateServe writes each tenant's uploads to tenant-<t>.ndjson and their
// byte lengths to uploads.json.
func generateServe(dir string, seed int64, seconds int) error {
	n := serveUploadsPerTenant(seconds)
	lengths := make([][]int, serveTenants)
	for t := 0; t < serveTenants; t++ {
		var jobs []job
		err := generate(traceSpec{jobs: n * serveUploadJobs, seed: seed*serveTenants + int64(t),
			arrivalPerHour: servePerHour}, func(j job) error { jobs = append(jobs, j); return nil })
		if err != nil {
			return err
		}
		var file bytes.Buffer
		for u := 0; u < n; u++ {
			up := jobs[u*serveUploadJobs : (u+1)*serveUploadJobs]
			stampLate(up, u)
			var body bytes.Buffer
			w := newNDJSONWriter(&body)
			for _, j := range up {
				if err := w.Write(j); err != nil {
					return err
				}
			}
			if err := w.Flush(); err != nil {
				return err
			}
			lengths[t] = append(lengths[t], body.Len())
			file.Write(body.Bytes())
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("tenant-%d.ndjson", t)), file.Bytes(), 0o644); err != nil {
			return err
		}
	}
	data, err := json.Marshal(lengths)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "uploads.json"), data, 0o644)
}

// stampLate moves serveLate records of an upload back into windows already
// sealed: 1 to 6 windows behind the newest one, so the 8-window ring never
// drops them as too old.
func stampLate(up []job, u int) {
	width := serveRing.window.Seconds()
	for l := 0; l < serveLate; l++ {
		k := (l + 1) * len(up) / (serveLate + 1)
		head := math.Floor(arrivalOf(up[k-1]) / width)
		target := head - float64(1+(u+l)%6)
		if target < 0 {
			continue
		}
		_, frac := math.Modf(arrivalOf(up[k]) / width)
		setArrival(&up[k], (target+frac)*width)
	}
}

// tenantUploads is one tenant's generated upload bodies. They are read
// from the file per request, so the client's memory stays flat.
type tenantUploads struct {
	f    *os.File
	offs []int64 // upload i is bytes [offs[i], offs[i+1])
}

func (u tenantUploads) count() int { return len(u.offs) - 1 }

func (u tenantUploads) body(i int) *io.SectionReader {
	return io.NewSectionReader(u.f, u.offs[i], u.offs[i+1]-u.offs[i])
}

// openUploads opens each tenant's upload file and indexes its bodies.
func openUploads(dir string) ([]tenantUploads, error) {
	data, err := os.ReadFile(filepath.Join(dir, "uploads.json"))
	if err != nil {
		return nil, err
	}
	var lengths [][]int
	if err := json.Unmarshal(data, &lengths); err != nil {
		return nil, err
	}
	uploads := make([]tenantUploads, len(lengths))
	for t, ls := range lengths {
		f, err := os.Open(filepath.Join(dir, fmt.Sprintf("tenant-%d.ndjson", t)))
		if err != nil {
			closeUploads(uploads)
			return nil, err
		}
		u := tenantUploads{f: f, offs: []int64{0}}
		for _, n := range ls {
			u.offs = append(u.offs, u.offs[len(u.offs)-1]+int64(n))
		}
		uploads[t] = u
	}
	return uploads, nil
}

func closeUploads(uploads []tenantUploads) {
	for _, u := range uploads {
		if u.f != nil {
			u.f.Close()
		}
	}
}

func tenantName(t int) string { return fmt.Sprintf("tenant-%d", t) }

// server is one in-process paiserve on a loopback port, its client, and
// how far each tenant's uploads have got.
type server struct {
	e       *engine
	uploads []tenantUploads
	next    []int // next upload index per tenant
	srv     *http.Server
	done    chan error
	base    string
	client  *http.Client

	mu            sync.Mutex
	failed, tried int
	failures      []string
	uploadedBytes int64
}

// startServer sets up a server: engine, handler, listener, client and
// inputs, then warms it with serveWarmUploads uploads per tenant and one
// report each.
func startServer(ctx context.Context, dir string, tr *tracer) (*server, error) {
	e, err := newEngine(serveCacheEntries, tr)
	if err != nil {
		return nil, err
	}
	h, err := newServer(e, serveRing)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{e: e, next: make([]int, serveTenants), done: make(chan error, 1),
		srv:  &http.Server{Handler: h},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true,
		}},
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	if s.uploads, err = openUploads(dir); err != nil {
		s.stop()
		return nil, err
	}
	for i := 0; i < serveWarmUploads; i++ {
		err := forConns(func(c int) error {
			for t := c; t < serveTenants; t += serveConns {
				if _, err := s.upload(ctx, t); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			s.stop()
			return nil, err
		}
	}
	for t := 0; t < serveTenants; t++ {
		s.report(ctx, t)
	}
	return s, nil
}

// serveCacheEntries is paiserve's default result-cache budget.
const serveCacheEntries = 16384

// stop shuts the server down, waits for it, and closes the inputs.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	_ = s.srv.Shutdown(context.Background()) // no requests are in flight
	<-s.done
	closeUploads(s.uploads)
}

// forConns runs fn once per client connection and waits for all of them.
func forConns(fn func(conn int) error) error {
	errs := make([]error, serveConns)
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// errExhausted reports that a tenant has no generated uploads left.
var errExhausted = errors.New("no uploads left")

// do sends one request and drains the response; a transport error or a
// non-2xx status counts as a failed operation.
func (s *server) do(ctx context.Context, method, path string, body *io.SectionReader) ([]byte, bool) {
	var rd io.Reader
	if body != nil {
		rd = body
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return nil, s.fail(err.Error())
	}
	if body != nil {
		req.ContentLength = body.Size()
		req.Header.Set("Content-Type", ndjsonMediaType)
	}
	if t := s.e.tr; t != nil {
		id, start := t.nextReq.Add(1), time.Now()
		defer func() { t.span(method+" "+path, id, start) }()
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, s.fail(err.Error())
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, s.fail(err.Error())
	}
	if resp.StatusCode/100 != 2 {
		return nil, s.fail(fmt.Sprintf("%s %s: %s %s", method, path, resp.Status, bytes.TrimSpace(data)))
	}
	s.mu.Lock()
	s.tried++
	s.mu.Unlock()
	return data, true
}

func (s *server) fail(msg string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tried++
	s.failed++
	if len(s.failures) < 5 {
		s.failures = append(s.failures, msg)
	}
	return false
}

// upload sends tenant t's next upload and returns its job count.
func (s *server) upload(ctx context.Context, t int) (int, error) {
	s.mu.Lock()
	u := s.next[t]
	if u >= s.uploads[t].count() {
		s.mu.Unlock()
		return 0, errExhausted
	}
	s.next[t]++
	body := s.uploads[t].body(u)
	s.uploadedBytes += body.Size()
	s.mu.Unlock()
	if _, ok := s.do(ctx, http.MethodPost, uploadPath(tenantName(t)), body); !ok {
		return 0, nil
	}
	return serveUploadJobs, nil
}

// report GETs tenant t's report; a failure is counted by do.
func (s *server) report(ctx context.Context, t int) {
	s.do(ctx, http.MethodGet, reportPath(tenantName(t)), nil)
}

func (s *server) metrics(ctx context.Context) (serverMetrics, error) {
	var m serverMetrics
	data, ok := s.do(ctx, http.MethodGet, metricsPath, nil)
	if !ok {
		return m, fmt.Errorf("GET %s failed", metricsPath)
	}
	return m, json.Unmarshal(data, &m)
}

// openLoop is the result of one open-loop phase.
type openLoop struct {
	uploads, reports []float64 // latency from the due time, ms
	genLateMax       float64   // ms the client started a request it was free to send late
}

// runOpenLoop sends n requests, one every 1/serveRate seconds, each tenant's
// over its own connection. Request i goes to tenant i % serveTenants and is
// a report when i % serveReportEvery is the last of its cycle.
func (s *server) runOpenLoop(ctx context.Context, n int) (openLoop, error) {
	start := time.Now().Add(10 * time.Millisecond)
	interval := time.Second / serveRate
	per := make([]openLoop, serveConns)
	err := forConns(func(c int) error {
		o := &per[c]
		free := start
		for i := 0; i < n; i++ {
			t := i % serveTenants
			if t%serveConns != c {
				continue
			}
			due := start.Add(time.Duration(i) * interval)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			sent := time.Now()
			ready := due
			if free.After(ready) {
				ready = free
			}
			o.genLateMax = math.Max(o.genLateMax, ms(sent.Sub(ready)))
			if i%serveReportEvery == serveReportEvery-1 {
				s.report(ctx, t)
				free = time.Now()
				o.reports = append(o.reports, ms(free.Sub(due)))
				continue
			}
			if _, err := s.upload(ctx, t); err != nil {
				return err
			}
			free = time.Now()
			o.uploads = append(o.uploads, ms(free.Sub(due)))
		}
		return nil
	})
	var all openLoop
	for _, o := range per {
		all.uploads = append(all.uploads, o.uploads...)
		all.reports = append(all.reports, o.reports...)
		all.genLateMax = math.Max(all.genLateMax, o.genLateMax)
	}
	return all, err
}

// capacity runs uploads closed-loop over every connection for d, or until
// the generated uploads run out, and returns the median over the
// capacitySlice slices it completed of the jobs finished in the slice
// divided by the time between the slice's last completion and the
// previous slice's.
func (s *server) capacity(ctx context.Context, d time.Duration) (float64, int, error) {
	start := time.Now()
	var mu sync.Mutex
	var done []time.Duration // upload completion times
	err := forConns(func(c int) error {
		for t := c; time.Since(start) < d; t += serveConns {
			if t >= serveTenants {
				t = c
			}
			n, err := s.upload(ctx, t)
			if errors.Is(err, errExhausted) {
				return nil
			}
			if err != nil {
				return err
			}
			if n > 0 {
				mu.Lock()
				done = append(done, time.Since(start))
				mu.Unlock()
			}
		}
		return nil
	})
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	var rates []float64
	prevIdx, prevT := 0, time.Duration(0)
	for k := 1; time.Duration(k)*capacitySlice <= d; k++ {
		idx := sort.Search(len(done), func(i int) bool { return done[i] > time.Duration(k)*capacitySlice })
		if idx == prevIdx || idx == len(done) && time.Duration(k)*capacitySlice > done[len(done)-1] {
			break // the uploads ran out
		}
		rates = append(rates, float64((idx-prevIdx)*serveUploadJobs)/(done[idx-1]-prevT).Seconds())
		prevIdx, prevT = idx, done[idx-1]
	}
	if len(rates) == 0 {
		return 0, 0, fmt.Errorf("the capacity phase completed no %v slice", capacitySlice)
	}
	return median(rates), len(rates), err
}

// capacitySlice is the unit the capacity phase's throughput is sampled in.
const capacitySlice = 250 * time.Millisecond

// check compares each tenant's snapshot with the offline fold of the
// records it accepted: one report sink per window still in the ring, each
// folding that window's records in upload order, merged oldest first.
func (s *server) check(ctx context.Context, r *result) error {
	if s.failed > 0 {
		r.check(false, "%d of %d requests failed, e.g. %q", s.failed, s.tried, s.failures)
		return nil
	}
	plain, err := newEngine(0, nil)
	if err != nil {
		return err
	}
	width := serveRing.window.Seconds()
	for t := 0; t < serveTenants; t++ {
		byWindow := map[int64][]job{}
		head := int64(0)
		for u := 0; u < s.next[t]; u++ {
			body, err := io.ReadAll(s.uploads[t].body(u))
			if err != nil {
				return err
			}
			jobs, err := decodeNDJSON(body)
			if err != nil {
				return err
			}
			for _, j := range jobs {
				w := int64(0)
				if a := arrivalOf(j); a > 0 {
					w = int64(a / width)
				}
				byWindow[w] = append(byWindow[w], j)
				if w > head {
					head = w
				}
			}
			for w := range byWindow {
				if w <= head-int64(serveRing.windows) {
					delete(byWindow, w) // rotated out of the ring
				}
			}
		}
		var groups [][]job
		for w := head - int64(serveRing.windows) + 1; w <= head; w++ {
			if g := byWindow[w]; len(g) > 0 {
				groups = append(groups, g)
			}
		}
		offline, err := plain.foldWindows(ctx, groups)
		if err != nil {
			return err
		}
		want, err := payload(offline)
		if err != nil {
			return err
		}
		frame, ok := s.do(ctx, http.MethodGet, snapshotPath(tenantName(t)), nil)
		if !ok {
			r.check(false, "GET snapshot of %s failed", tenantName(t))
			continue
		}
		got, err := snapshotFramePayload(frame)
		if err != nil {
			return err
		}
		r.check(bytes.Equal(got, want), "%s snapshot after %d uploads equals the offline per-window fold (%d bytes)",
			tenantName(t), s.next[t], len(want))
	}
	return nil
}

// runServe measures the paiserve workload. Untraced: set up (repeated),
// open loop, capacity. Traced: the same on an untraced and then a traced
// server, each for half the open-loop time, so the tracing overhead is the
// difference between their capacities.
func runServe(ctx context.Context, dir string, o options, r *result) error {
	openFor := time.Duration(o.seconds)*time.Second - serveCapacity
	if o.trace {
		openFor = (time.Duration(o.seconds)*time.Second - 2*serveCapacity) / 2
	}
	requests := int(openFor.Seconds() * serveRate)
	if requests < serveReportEvery {
		return fmt.Errorf("--seconds %d leaves no time for the open loop", o.seconds)
	}

	repeats := setupRepeats
	if o.trace {
		repeats = 1 // a traced run reports no set-up time
	}
	var setups []float64
	var s *server
	for i := 0; i < repeats; i++ {
		if s != nil {
			s.stop()
			s = nil
			releaseMemory()
		}
		start := time.Now()
		var err error
		if s, err = startServer(ctx, dir, nil); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	ol, err := s.runOpenLoop(ctx, requests)
	if err != nil {
		s.stop()
		return err
	}
	capJPS, slices, err := s.capacity(ctx, serveCapacity)
	if err != nil {
		s.stop()
		return err
	}
	err = s.check(ctx, r)
	r.Attempted, r.Failed = s.tried, s.failed
	s.stop()
	if err != nil {
		return err
	}
	r.note("open loop %d requests at %d/s over %d tenants; %d-job uploads with %d late records; capacity %.0f jobs/s (offered %.0f)",
		requests, serveRate, serveTenants, serveUploadJobs, serveLate, capJPS,
		float64(serveRate)*(serveReportEvery-1)/serveReportEvery*serveUploadJobs)

	if !o.trace {
		r.add("jobs_per_sec", capJPS, "1/s", slices)
		r.add("setup_s", median(setups), "s", len(setups))
		r.add("upload_ms_p50", quantile(ol.uploads, 0.50), "ms", len(ol.uploads))
		r.add("report_ms_p50", quantile(ol.reports, 0.50), "ms", len(ol.reports))
		return nil
	}

	tr := newTracer()
	ts, err := startServer(ctx, dir, tr)
	if err != nil {
		return err
	}
	defer ts.stop()
	before, err := ts.metrics(ctx)
	if err != nil {
		return err
	}
	cacheBefore := ts.e.cacheCounters()
	tr.reset()
	bytesBefore := ts.uploadedBytes
	start := time.Now()
	tol, err := ts.runOpenLoop(ctx, requests)
	if err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	after, err := ts.metrics(ctx)
	if err != nil {
		return err
	}
	tr.tracegenDecode.bytes.Add(ts.uploadedBytes - bytesBefore)
	addLayers(r, tr, 1)
	addTails(r, ol.uploads, ol.reports)
	cacheLayers(r, cacheBefore, ts.e.cacheCounters(), 1)
	var late, rotated int64
	for id, t := range after.Tenants {
		late += t.Late - before.Tenants[id].Late
		rotated += t.Rotated - before.Tenants[id].Rotated
	}
	r.add("window.late_arrivals", float64(late), "count", 1)
	r.add("window.rotated", float64(rotated), "count", 1)
	r.add("serve.uploads", float64(after.Uploads-before.Uploads), "count", len(tol.uploads))
	r.add("serve.rejected", float64(after.Rejected-before.Rejected), "count", len(tol.uploads))
	r.add("serve.gen_late_ms_max", tol.genLateMax, "ms", len(tol.uploads)+len(tol.reports))
	tcap, _, err := ts.capacity(ctx, serveCapacity)
	if err != nil {
		return err
	}
	if err := ts.check(ctx, r); err != nil {
		return err
	}
	r.Attempted += ts.tried
	r.Failed += ts.failed
	r.add("trace.overhead_jobs_per_sec", tcap-capJPS, "1/s", slices)
	r.add("trace.overhead_share", (tcap-capJPS)/capJPS, "ratio", slices)
	shares(r, wall)
	return tr.writeSpans(o.spans)
}
