// Package httpmw is the HTTP middleware layer shared by the serving
// daemons (apserved shards and the aprouted fleet router): per-route
// latency histograms pre-registered into a live metrics registry, a
// status-capturing response writer, structured access logs, a
// panic-to-500 recoverer, and fleet-wide request correlation via the
// X-AP-Request-Id header.
//
// The request-id contract is the spine of the fleet observability plane:
// every request entering any daemon gets an id — the inbound header's
// value when present (the router stamps one before proxying), a fresh one
// otherwise — which is echoed on the response, logged in the access line,
// and available to handlers through RequestID(ctx). One id therefore
// names one client interaction across the router hop and the shard that
// served it, so router and shard access logs join on it.
package httpmw

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"activepages/internal/obs"
)

// RequestIDHeader carries the fleet-wide request correlation id. The
// router generates one per inbound request and stamps it on everything it
// proxies; a daemon receiving a request without one (a direct client)
// generates its own, so every access-log line in the fleet has an id.
const RequestIDHeader = "X-AP-Request-Id"

// ridKey is the context key RequestID reads.
type ridKey struct{}

// DiscardLogger returns a logger that drops every record unformatted: its
// handler reports every level disabled, so slog skips building the record
// and callers that check Enabled skip building its arguments. The daemons
// use it when their Config carries no Logger. (slog.DiscardHandler needs
// Go 1.24.)
func DiscardLogger() *slog.Logger { return slog.New(discardHandler{}) }

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// NewRequestID returns a fresh 16-hex-char request id.
func NewRequestID() string {
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// RequestID returns the request id Handle attached to the context, or ""
// outside an instrumented handler.
func RequestID(ctx context.Context) string {
	v, _ := ctx.Value(ridKey{}).(string)
	return v
}

// RouteMetricName turns a mux pattern into a metric name segment:
// "GET /api/v1/runs/{id}" -> "get_api_v1_runs_id".
func RouteMetricName(pattern string) string {
	var b strings.Builder
	prev := byte('_')
	for i := 0; i < len(pattern); i++ {
		c := pattern[i]
		switch {
		case c >= 'A' && c <= 'Z':
			c += 'a' - 'A'
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		default:
			c = '_'
		}
		if c == '_' && prev == '_' {
			continue
		}
		b.WriteByte(c)
		prev = c
	}
	return strings.Trim(b.String(), "_")
}

// StatusWriter captures the response status and size for the access log.
type StatusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *StatusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *StatusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// Flush forwards to the wrapped writer when it supports flushing, so
// handlers streaming live data (progress polls, trace exports) can push
// bytes through the instrumentation wrapper.
func (w *StatusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Status returns the captured response status (0 until the handler writes).
func (w *StatusWriter) Status() int { return w.status }

// Bytes returns how many body bytes the handler wrote.
func (w *StatusWriter) Bytes() int { return w.bytes }

// Instrument is one daemon's HTTP instrumentation: request/error/panic
// counters and per-route latency histograms registered into a live
// registry under a daemon-specific prefix ("serve." for shards, "router."
// for the fleet router), a structured access log, and request-id
// propagation. One Instrument serves one mux.
type Instrument struct {
	log    *slog.Logger
	live   *obs.Registry
	prefix string

	requests atomic.Uint64
	errors   atomic.Uint64
	panics   atomic.Uint64
}

// NewInstrument builds an Instrument and registers its counters as
// prefix+"http_requests", prefix+"http_errors", and prefix+"http_panics".
func NewInstrument(log *slog.Logger, live *obs.Registry, prefix string) *Instrument {
	m := &Instrument{log: log, live: live, prefix: prefix}
	live.Counter(prefix+"http_requests", m.requests.Load)
	live.Counter(prefix+"http_errors", m.errors.Load)
	live.Counter(prefix+"http_panics", m.panics.Load)
	return m
}

// Panics returns how many handler panics the recoverer converted to 500s.
func (m *Instrument) Panics() uint64 { return m.panics.Load() }

// Handle registers one route with its instrumentation: a per-route
// latency histogram (pre-registered here, so the request path never
// mutates the registry), a request counter, request-id propagation, and a
// structured access log line per request. Wiring the label at
// registration time keeps the route->histogram mapping static and
// lock-free.
func (m *Instrument) Handle(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	hist := &obs.LiveHistogram{}
	m.live.Histogram(m.prefix+"http."+RouteMetricName(pattern), hist)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := r.Header.Get(RequestIDHeader)
		if rid == "" {
			rid = NewRequestID()
		}
		w.Header().Set(RequestIDHeader, rid)
		r = r.WithContext(context.WithValue(r.Context(), ridKey{}, rid))
		sw := &StatusWriter{ResponseWriter: w}
		h(sw, r)
		elapsed := time.Since(start)
		hist.Observe(elapsed)
		m.requests.Add(1)
		if sw.status >= 500 {
			m.errors.Add(1)
		}
		m.log.LogAttrs(r.Context(), slog.LevelInfo, "http",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", pattern),
			slog.String("request_id", rid),
			slog.Int("status", sw.status),
			slog.Int("bytes", sw.bytes),
			slog.Int64("us", elapsed.Microseconds()),
			slog.String("remote", r.RemoteAddr))
	})
}

// Recoverer is the outermost middleware: a panicking handler becomes a 500
// and a logged stack instead of a killed connection, and requests that
// match no route still get an access log line.
func (m *Instrument) Recoverer(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				m.panics.Add(1)
				m.errors.Add(1)
				m.log.Error("handler panic",
					"method", r.Method, "path", r.URL.Path,
					"panic", v, "stack", string(debug.Stack()))
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusInternalServerError)
				json.NewEncoder(w).Encode(map[string]string{"error": "internal error"})
			}
		}()
		next.ServeHTTP(w, r)
	})
}
