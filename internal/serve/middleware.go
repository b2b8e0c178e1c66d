package serve

import "net/http"

// handle registers one route through the shared middleware layer: per-route
// latency histogram under "serve.http.<route>", request counting, request-id
// propagation, and a structured access-log line per request (see httpmw).
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mw.Handle(s.mux, pattern, h)
}
