// Package serve is the HTTP layer of paiserve, the evaluation-as-a-service
// daemon: it accepts streamed trace uploads per tenant in any registered
// codec (NDJSON or columnar colbin; Content-Type names the codec, anything
// else is sniffed from the upload's leading bytes), folds every evaluated
// job into a per-tenant sliding-window ring (internal/window), and serves
// live reports, framed sink snapshots (paibench -merge interop) and service
// metrics. Uploads stream through the shared engine and its result cache —
// a 1M-job upload holds one record block plus the fixed-size window sinks
// in memory, never the trace.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analyze"
	_ "repro/internal/colbin" // register the columnar codec for sniffed uploads
	"repro/internal/evalcache"
	"repro/internal/project"
	"repro/internal/stream"
	"repro/internal/tracegen"
	"repro/internal/version"
	"repro/internal/window"
)

// Engine is the evaluation surface the server needs; *pai.Engine satisfies
// it (the root package's exported types alias the internal ones).
type Engine interface {
	EvaluateSource(ctx context.Context, src stream.Source, fn func(stream.Result) error) (int, error)
	NewReportSink(target project.Target) (*analyze.MultiSink, error)
	CacheStats() evalcache.Stats
	Backend() string
	Parallelism() int
}

// Config parameterizes a Server. Zero fields take the defaults documented
// per field; Engine is required.
type Config struct {
	// Engine evaluates uploaded records; shared by all tenants, so its
	// result cache deduplicates repeated jobs across tenants.
	Engine Engine
	// WindowWidth is the time-window width (default 15m).
	WindowWidth time.Duration
	// WindowCount is the ring capacity in windows (default 8).
	WindowCount int
	// Target is the projection target of the per-window report sinks
	// (default AllReduce-Local, the paper's Fig. 9 headline).
	Target project.Target
	// MaxTenants bounds the tenant map (default 256).
	MaxTenants int
	// MaxUploadBytes bounds one upload body (default 1 GiB).
	MaxUploadBytes int64
	// TenantUploads bounds concurrent uploads per tenant (default 2);
	// excess uploads are rejected with 429 rather than queued.
	TenantUploads int
}

func (c Config) withDefaults() (Config, error) {
	if c.Engine == nil {
		return c, errors.New("serve: Config.Engine is required")
	}
	if c.WindowWidth == 0 {
		c.WindowWidth = 15 * time.Minute
	}
	if c.WindowWidth < 0 {
		return c, fmt.Errorf("serve: WindowWidth must be > 0, got %v", c.WindowWidth)
	}
	if c.WindowCount == 0 {
		c.WindowCount = 8
	}
	if c.WindowCount < 0 {
		return c, fmt.Errorf("serve: WindowCount must be > 0, got %d", c.WindowCount)
	}
	if c.MaxTenants == 0 {
		c.MaxTenants = 256
	}
	if c.MaxUploadBytes == 0 {
		c.MaxUploadBytes = 1 << 30
	}
	if c.TenantUploads == 0 {
		c.TenantUploads = 2
	}
	return c, nil
}

// tenant is one isolated window ring plus its upload semaphore.
type tenant struct {
	id   string
	sem  chan struct{}
	mu   sync.Mutex
	ring *window.Ring
}

// Server routes the paiserve HTTP API. Create with New, serve via Handler.
type Server struct {
	cfg   Config
	meta  string // provenance base of every snapshot this server writes
	mux   *http.ServeMux
	start time.Time

	mu      sync.Mutex
	tenants map[string]*tenant

	uploads  atomic.Int64 // completed uploads
	rejected atomic.Int64 // uploads refused (limits, bad requests)
	jobs     atomic.Int64 // jobs folded across all tenants
}

// New builds a Server over the config's engine.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg: cfg,
		meta: fmt.Sprintf("paiserve width-sec=%g windows=%d",
			cfg.WindowWidth.Seconds(), cfg.WindowCount),
		mux:     http.NewServeMux(),
		start:   time.Now(),
		tenants: map[string]*tenant{},
	}
	s.mux.HandleFunc("POST /v1/tenants/{id}/traces", s.handleUpload)
	s.mux.HandleFunc("GET /v1/tenants/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /v1/tenants/{id}/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /version", s.handleVersion)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the server's route table.
func (s *Server) Handler() http.Handler { return s.mux }

// validTenantID bounds tenant names to a filesystem- and URL-safe alphabet.
func validTenantID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}

// tenantFor returns the tenant, creating it if the tenant budget allows.
func (s *Server) tenantFor(id string, create bool) (*tenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[id]; ok {
		return t, nil
	}
	if !create {
		return nil, nil
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		return nil, fmt.Errorf("tenant limit (%d) reached", s.cfg.MaxTenants)
	}
	ring, err := window.New(s.cfg.WindowWidth.Seconds(), s.cfg.WindowCount, s.reportFactory)
	if err != nil {
		return nil, err
	}
	t := &tenant{id: id, sem: make(chan struct{}, s.cfg.TenantUploads), ring: ring}
	s.tenants[id] = t
	return t, nil
}

// reportFactory builds one per-window full report sink.
func (s *Server) reportFactory() (*analyze.MultiSink, error) {
	return s.cfg.Engine.NewReportSink(s.cfg.Target)
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

// limitTracker remembers whether the wrapped MaxBytesReader refused the
// body, distinguishing an over-budget upload from a merely truncated one.
type limitTracker struct {
	r   io.Reader
	hit bool
}

func (l *limitTracker) Read(p []byte) (int, error) {
	n, err := l.r.Read(p)
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		l.hit = true
	}
	return n, err
}

// uploadResponse acknowledges one accepted trace upload.
type uploadResponse struct {
	Tenant string `json:"tenant"`
	// Jobs is the record count of this upload; TenantJobs the tenant's
	// running total across the ring.
	Jobs       int   `json:"jobs"`
	TenantJobs int64 `json:"tenant_jobs"`
	// Windows is the tenant's current non-empty window count.
	Windows int `json:"windows_occupied"`
}

// handleUpload streams one trace upload through the engine into the
// tenant's ring. The codec comes from Content-Type (falling back to byte
// sniffing, see formatFor), the body is bounded by MaxUploadBytes and never
// buffered: decode -> evaluate -> ring.Add runs record by record (block by
// block for columnar uploads). Every record, late or not, is one Add into
// its window's live sink; nothing is encoded until a snapshot is asked for.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !validTenantID(id) {
		s.rejected.Add(1)
		httpError(w, http.StatusBadRequest, "invalid tenant id %q", id)
		return
	}
	t, err := s.tenantFor(id, true)
	if err != nil {
		s.rejected.Add(1)
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	select {
	case t.sem <- struct{}{}:
		defer func() { <-t.sem }()
	default:
		s.rejected.Add(1)
		httpError(w, http.StatusTooManyRequests,
			"tenant %q already has %d uploads in flight", id, cap(t.sem))
		return
	}

	// MaxBytesReader bounds the body, but its error can surface as a decode
	// error instead (the line scanner treats any read error as end of input
	// and parses the truncated tail), so the tracker records the limit hit
	// at the read layer where it is unambiguous.
	body := &limitTracker{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)}
	src, err := tracegen.OpenSource(body, formatFor(r.Header.Get("Content-Type")))
	if err != nil {
		s.rejected.Add(1)
		var tooLarge *http.MaxBytesError
		if body.hit || errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge,
				"upload exceeds %d bytes", s.cfg.MaxUploadBytes)
			return
		}
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	n, err := s.cfg.Engine.EvaluateSource(r.Context(), src, func(res stream.Result) error {
		t.mu.Lock()
		defer t.mu.Unlock()
		return t.ring.Add(res.Job, res.Times)
	})
	if err != nil {
		s.rejected.Add(1)
		var tooLarge *http.MaxBytesError
		if body.hit || errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge,
				"upload exceeds %d bytes", s.cfg.MaxUploadBytes)
			return
		}
		// Decode errors carry the offending 1-based line number.
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.uploads.Add(1)
	s.jobs.Add(int64(n))
	t.mu.Lock()
	st := t.ring.Stats()
	t.mu.Unlock()
	writeJSON(w, uploadResponse{Tenant: id, Jobs: n,
		TenantJobs: st.Jobs, Windows: st.Occupied})
}

// formatFor maps an upload's Content-Type to a trace codec name, falling
// back to byte sniffing. Naming the codec keeps NDJSON decode errors
// line-numbered even for a malformed first record, which sniffing alone
// cannot promise (a truncated JSON line is indistinguishable from the
// whole-document format's opening brace).
func formatFor(contentType string) string {
	mt, _, err := mime.ParseMediaType(contentType)
	if err != nil {
		return tracegen.FormatAuto
	}
	switch mt {
	case "application/x-ndjson", "application/jsonl", "application/x-jsonlines":
		return "ndjson"
	}
	return tracegen.FormatAuto
}

// fold folds the newest lastN windows (<= 0 folds the whole ring)
// under the tenant lock.
func (t *tenant) fold(lastN int) (*analyze.MultiSink, int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Fold(lastN)
}

// lastNOf converts a ?window= duration to a fold depth in windows,
// rounding up so "15m" over 10m windows folds 2.
func (s *Server) lastNOf(d time.Duration) int {
	if d <= 0 {
		return s.cfg.WindowCount
	}
	n := int(math.Ceil(float64(d) / float64(s.cfg.WindowWidth)))
	if n < 1 {
		n = 1
	}
	if n > s.cfg.WindowCount {
		n = s.cfg.WindowCount
	}
	return n
}

// handleReport renders the live folded report: text by default,
// paibench/1-schema JSON with ?format=json. ?window=15m bounds the fold to
// the newest ceil(15m/width) windows; default folds the whole ring.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, err := s.tenantFor(id, false)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if t == nil {
		httpError(w, http.StatusNotFound, "unknown tenant %q", id)
		return
	}
	lastN := s.cfg.WindowCount
	if win := r.URL.Query().Get("window"); win != "" {
		d, err := time.ParseDuration(win)
		if err != nil || d <= 0 {
			httpError(w, http.StatusBadRequest, "bad window %q (want a positive Go duration, e.g. 15m)", win)
			return
		}
		lastN = s.lastNOf(d)
	}
	sink, jobs, err := t.fold(lastN)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "fold: %v", err)
		return
	}
	switch r.URL.Query().Get("format") {
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := renderText(w, id, lastN, s.cfg.WindowWidth, jobs, sink); err != nil {
			fmt.Fprintf(w, "\nrender error: %v\n", err)
		}
	case "json":
		rep, err := s.reportJSON(id, lastN, jobs, sink)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "report: %v", err)
			return
		}
		writeJSON(w, rep)
	default:
		httpError(w, http.StatusBadRequest, "bad format %q (want text or json)", r.URL.Query().Get("format"))
	}
}

// handleSnapshot downloads the whole-ring fold as one framed sink snapshot
// — the exact frame paibench -merge consumes. The provenance base excludes
// the tenant id, so snapshots of different tenants of one server merge.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, err := s.tenantFor(id, false)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if t == nil {
		httpError(w, http.StatusNotFound, "unknown tenant %q", id)
		return
	}
	sink, _, err := t.fold(0)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "fold: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", id+".snap"))
	if err := analyze.WriteSnapshotMeta(w, sink, s.meta); err != nil {
		// Headers are gone; all we can do is abort the body.
		return
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{"status": "ok", "uptime_sec": time.Since(s.start).Seconds()})
}

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, version.Get())
}

// tenantMetrics is one tenant's /metrics entry.
type tenantMetrics struct {
	window.Stats
	// InFlight is the number of uploads currently holding the semaphore.
	InFlight int `json:"uploads_in_flight"`
}

// metricsResponse is the expvar-style /metrics document.
type metricsResponse struct {
	UptimeSec float64 `json:"uptime_sec"`
	Backend   string  `json:"backend"`
	Workers   int     `json:"workers"`

	JobsTotal       int64 `json:"jobs_total"`
	UploadsTotal    int64 `json:"uploads_total"`
	UploadsRejected int64 `json:"uploads_rejected"`

	WindowSec   float64 `json:"window_sec"`
	WindowCount int     `json:"window_count"`

	CacheHits          uint64  `json:"cache_hits"`
	CacheMisses        uint64  `json:"cache_misses"`
	CacheHitRate       float64 `json:"cache_hit_rate"`
	CacheRotations     uint64  `json:"cache_rotations"`
	CacheEvictions     uint64  `json:"cache_evictions"`
	CacheEntries       int     `json:"cache_entries"`
	CacheTargetBytes   int64   `json:"cache_target_bytes"`
	CacheAvgEntryBytes float64 `json:"cache_avg_entry_bytes"`
	CacheBlockHits     uint64  `json:"cache_block_hits"`
	CacheBlockMisses   uint64  `json:"cache_block_misses"`
	CacheFrameHits     uint64  `json:"cache_frame_hits"`
	CacheBlockEntries  int     `json:"cache_block_entries"`

	Tenants map[string]tenantMetrics `json:"tenants"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	cs := s.cfg.Engine.CacheStats()
	resp := metricsResponse{
		UptimeSec:       time.Since(s.start).Seconds(),
		Backend:         s.cfg.Engine.Backend(),
		Workers:         s.cfg.Engine.Parallelism(),
		JobsTotal:       s.jobs.Load(),
		UploadsTotal:    s.uploads.Load(),
		UploadsRejected: s.rejected.Load(),
		WindowSec:       s.cfg.WindowWidth.Seconds(),
		WindowCount:     s.cfg.WindowCount,

		CacheHits:          cs.Hits,
		CacheMisses:        cs.Misses,
		CacheHitRate:       cs.HitRate(),
		CacheRotations:     cs.Rotations,
		CacheEvictions:     cs.Evictions,
		CacheEntries:       cs.Entries,
		CacheTargetBytes:   cs.TargetBytes,
		CacheAvgEntryBytes: cs.AvgEntryBytes,
		CacheBlockHits:     cs.BlockHits,
		CacheBlockMisses:   cs.BlockMisses,
		CacheFrameHits:     cs.FrameHits,
		CacheBlockEntries:  cs.BlockEntries,

		Tenants: map[string]tenantMetrics{},
	}
	s.mu.Lock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.Unlock()
	for _, t := range tenants {
		t.mu.Lock()
		st := t.ring.Stats()
		t.mu.Unlock()
		resp.Tenants[t.id] = tenantMetrics{Stats: st, InFlight: len(t.sem)}
	}
	writeJSON(w, resp)
}

// FlushState writes every tenant's whole-ring fold as a framed snapshot
// file <dir>/<tenant>.snap — the flush of graceful drain, and with /snapshot
// the only place a ring's live windows are encoded. Call after the HTTP
// server has drained, so no upload mutates a ring mid-fold.
func (s *Server) FlushState(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	s.mu.Lock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.Unlock()
	for _, t := range tenants {
		sink, jobs, err := t.fold(0)
		if err != nil {
			return fmt.Errorf("serve: flush %q: %w", t.id, err)
		}
		if jobs == 0 {
			continue
		}
		f, err := os.Create(filepath.Join(dir, t.id+".snap"))
		if err != nil {
			return err
		}
		if err := analyze.WriteSnapshotMeta(f, sink, s.meta); err != nil {
			f.Close()
			return fmt.Errorf("serve: flush %q: %w", t.id, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
