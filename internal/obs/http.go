// The admin HTTP endpoint: /metrics (Prometheus text), /metrics.json,
// /statusz (one consistent JSON status snapshot), /healthz, and the
// standard /debug/pprof/* handlers. eyewnder-server serves this behind
// -admin; eyewnder-sim serves it behind -scrape so CI can watch a churn
// replay from outside the process.
package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Health is what /healthz reports: OK selects the HTTP status (200 vs
// 503) and the whole struct is the JSON body, so "warm replica, still
// catching up" is distinguishable from "caught up" without being an
// error.
type Health struct {
	// OK is false only when the process should be taken out of
	// rotation: on a follower, a fatally stopped replication loop.
	OK bool `json:"ok"`
	// Role is "primary" or "follower".
	Role string `json:"role"`
	// Detail is a short human phrase: "serving", "caught up",
	// "warm replica (catching up)", or the replication error.
	Detail string `json:"detail"`
}

// AdminOptions configures ServeAdmin. Registry is required; the
// callbacks may be nil, in which case the corresponding endpoint
// serves a minimal default.
type AdminOptions struct {
	Registry *Registry
	// Status builds the /statusz body. It must return one internally
	// consistent snapshot (taken under the owning component's locks),
	// which is then JSON-encoded.
	Status func() any
	// Health builds the /healthz verdict; nil means always-OK primary.
	Health func() Health
}

// Admin is a running admin HTTP listener.
type Admin struct {
	lis net.Listener
	srv *http.Server
}

// ServeAdmin listens on addr and serves the admin endpoint until
// Close. Pass ":0" style addresses for tests.
func ServeAdmin(addr string, opts AdminOptions) (*Admin, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	a := &Admin{lis: lis, srv: &http.Server{
		Handler:           Handler(opts),
		ReadHeaderTimeout: 5 * time.Second,
	}}
	go a.srv.Serve(lis)
	return a, nil
}

// Addr returns the listener's address (resolved, useful with ":0").
func (a *Admin) Addr() string { return a.lis.Addr().String() }

// Close shuts the listener down and drops in-flight requests.
func (a *Admin) Close() error { return a.srv.Close() }

// Handler builds the admin http.Handler — exported separately so tests
// and harnesses can mount it without a real listener.
func Handler(opts AdminOptions) http.Handler {
	reg := Ensure(opts.Registry)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteProm(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteJSON(w)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var body any
		if opts.Status != nil {
			body = opts.Status()
		} else {
			body = map[string]any{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(body)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		h := Health{OK: true, Role: "primary", Detail: "serving"}
		if opts.Health != nil {
			h = opts.Health()
		}
		w.Header().Set("Content-Type", "application/json")
		if !h.OK {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(h)
	})
	// pprof must be mounted by hand: the net/http/pprof side-effect
	// registration only touches http.DefaultServeMux.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
