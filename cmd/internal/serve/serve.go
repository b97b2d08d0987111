// Package serve is the HTTP server the cluster's commands run: one set of
// timeouts, the pprof mount, and a shutdown on SIGTERM. The connections a
// node serves from its own loop (internal/node/serve.go) keep to the same
// two timeouts and close with the server: they hang on its
// RegisterOnShutdown.
package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

const (
	// ReadHeaderTimeout bounds how long a client may take over a request's
	// head; bodies are bounded by the handlers' own deadlines.
	ReadHeaderTimeout = 10 * time.Second
	// IdleTimeout closes a keep-alive connection nobody uses; above the
	// peers' 90 s pool timeout, so the caller's side goes first.
	IdleTimeout = 120 * time.Second
	// ShutdownTimeout is how long requests in flight get to finish.
	ShutdownTimeout = 10 * time.Second
)

// New returns the server for a node's handler. With pprofOn the
// net/http/pprof handlers are mounted under /debug/pprof/ in front of the
// node's own routes: the profiling endpoints are not exposed by default.
func New(addr string, h http.Handler, pprofOn bool) *http.Server {
	if pprofOn {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", h)
		h = mux
	}
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout}
}

// Run listens on srv.Addr and serves until ctx ends — the commands end it
// on SIGTERM or an interrupt — then shuts the server down: no new
// connections, ShutdownTimeout for the requests in flight, and whatever
// is still open after that is closed. A clean shutdown returns nil.
func Run(ctx context.Context, srv *http.Server) error {
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	bound, cancel := context.WithTimeout(context.Background(), ShutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(bound); err != nil {
		_ = srv.Close()
		return err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
