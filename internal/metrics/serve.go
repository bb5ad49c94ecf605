package metrics

import (
	"fmt"
	"net"
	"net/http"
	"time"
)

// Server is the live exposition endpoint: a plain net/http server
// publishing the registry at /metrics (Prometheus text format) and
// /vars (expvar-style JSON). It exists so a long run can be scraped
// while it executes; nothing in the hot path knows the server exists —
// it only reads snapshots.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the exposition server on addr (":0" picks a free port;
// read it back with Addr). The registry may be nil, in which case the
// endpoints serve empty documents — callers can wire the flag plumbing
// unconditionally.
func Serve(addr string, r *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	srv := &http.Server{ReadHeaderTimeout: 5 * time.Second}
	s := &Server{ln: ln, srv: srv}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, r)
	})
	mux.HandleFunc("/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = WriteExpvarJSON(w, r)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprintln(w, "packunpack telemetry: /metrics (Prometheus text), /vars (expvar JSON)")
	})
	srv.Handler = mux
	go func() { _ = srv.Serve(ln) }()
	return s, nil
}

// Addr is the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and releases the port.
func (s *Server) Close() error { return s.srv.Close() }
