package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"time"

	"hexastore/internal/replica"
)

// Health and readiness. The two probes answer different questions:
//
//   - /healthz is liveness: is the process up and able to run a
//     handler? It never consults the store — a degraded store should be
//     pulled from rotation (readiness), not restarted (liveness), since
//     a restart loses nothing but also fixes nothing and loses caches.
//
//   - /readyz is readiness: should a load balancer send traffic here
//     *right now*? It fails while the server is draining for shutdown,
//     while the backend is sticky-degraded (poisoned WAL, failed
//     compaction), and — on a replica — while any WAL follower is
//     degraded or has not heard from its leader within the configured
//     lag bound. The body lists every failing reason so an operator can
//     see why a node left rotation from the probe output alone.
//
// Both bypass the load-shedding and deadline middleware: the moments a
// server is saturated or degraded are exactly the moments its probes
// must still answer.

// SetDraining flips the /readyz outcome; the server itself keeps
// serving. Call with true before stopping the listener so load
// balancers observe the 503 and drain traffic ahead of the actual
// shutdown (cmd/hexserver pairs it with a -drain-grace sleep).
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether SetDraining(true) was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// SetDegradedCheck installs the backend's sticky-failure probe —
// typically (*delta.Overlay).Degraded. A
// non-nil error fails /readyz and sheds mutating requests with 503:
// once the WAL is poisoned, acknowledging a write would promise a
// durability the store can no longer provide. Configure before Handler.
func (s *Server) SetDegradedCheck(fn func() error) { s.degradedCheck = fn }

// SetFollowers registers the replica's WAL followers for readiness.
// /readyz fails while any follower is sticky-degraded, and — when
// maxLag > 0 — while any follower has not heard from its leader (a
// frame, a keepalive, or a successful file-mode poll) within maxLag.
// Configure before Handler.
func (s *Server) SetFollowers(maxLag time.Duration, fs ...*replica.Follower) {
	s.followers = fs
	s.maxLag = maxLag
	s.metricsInit()
	for i, f := range fs {
		f := f
		s.reg.GaugeFunc("hex_follower_lag_seconds",
			"Seconds since the follower last heard from its leader (-1 before first contact).",
			func() float64 { return f.Stats().LagSeconds },
			"follower", fmt.Sprintf("%d", i))
	}
}

// SetMaxInflight caps concurrently served data requests at n; arrivals
// beyond the cap are shed immediately with 503 + Retry-After rather
// than queueing without bound (unbounded queues turn overload into
// latency collapse for every request instead of fast failure for the
// excess). n <= 0 disables shedding. Configure before Handler.
func (s *Server) SetMaxInflight(n int) {
	if n <= 0 {
		s.inflight = nil
		return
	}
	s.inflight = make(chan struct{}, n)
}

// SetRequestTimeout bounds each data request end-to-end: d after the
// request arrives its context expires, which the query and update paths
// observe (at 128-id granularity inside a join) and answer with 408.
// 0 disables the limit. Configure before Handler.
func (s *Server) SetRequestTimeout(d time.Duration) { s.reqTimeout = d }

// withDeadline is the request-deadline middleware: it runs the handler
// on the request's own goroutine with a context that expires after the
// request timeout, so bounding a request costs one timer — no second
// goroutine, no copy of the response body.
func (s *Server) withDeadline(next http.Handler) http.Handler {
	if s.reqTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	reasons := s.readyReasons()
	w.Header().Set("Content-Type", "application/json")
	if len(reasons) > 0 {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck // best-effort probe body
		"ready":   len(reasons) == 0,
		"reasons": reasons,
	})
}

// readyReasons collects every currently-failing readiness condition
// (empty means ready).
func (s *Server) readyReasons() []string {
	reasons := []string{}
	if s.draining.Load() {
		reasons = append(reasons, "draining: shutting down")
	}
	if s.degradedCheck != nil {
		if err := s.degradedCheck(); err != nil {
			reasons = append(reasons, "store degraded: "+err.Error())
		}
	}
	for i, f := range s.followers {
		st := f.Stats()
		if st.Degraded {
			r := fmt.Sprintf("follower %d degraded after %d failed connects", i, st.ConsecutiveFailures)
			if st.LastError != "" {
				r += ": " + st.LastError
			}
			reasons = append(reasons, r)
		}
		if s.maxLag <= 0 {
			continue
		}
		switch {
		case st.LagSeconds < 0:
			reasons = append(reasons, fmt.Sprintf("follower %d has no leader contact yet", i))
		case st.LagSeconds > s.maxLag.Seconds():
			reasons = append(reasons, fmt.Sprintf("follower %d last heard from leader %.1fs ago (bound %s)", i, st.LagSeconds, s.maxLag))
		}
	}
	return reasons
}

// shedDegradedWrite rejects a mutating request with 503 + Retry-After
// while the backend is sticky-degraded, and reports whether it did.
// Queries keep flowing — reads are still correct against the last
// consistent version; it is only new durability the store cannot offer.
func (s *Server) shedDegradedWrite(w http.ResponseWriter) bool {
	if s.degradedCheck == nil {
		return false
	}
	err := s.degradedCheck()
	if err == nil {
		return false
	}
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusServiceUnavailable, "store degraded, writes shed: %v", err)
	return true
}

// shedLoad is the saturation middleware: requests take a slot from the
// inflight semaphore or are shed with 503 + Retry-After.
func (s *Server) shedLoad(next http.Handler) http.Handler {
	if s.inflight == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Governed /sparql traffic is admitted by the query governor
		// (bounded deadline-aware queue, typed rejections) instead of
		// the generic semaphore.
		if s.gov != nil && r.URL.Path == "/sparql" {
			next.ServeHTTP(w, r)
			return
		}
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
			next.ServeHTTP(w, r)
		default:
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, "server saturated: %d requests in flight", cap(s.inflight))
		}
	})
}

// recoverPanics converts a panicking request into a 500 response
// instead of letting one bad query kill the whole process (net/http
// would only kill the goroutine, but a panic during a shared-lock
// region can leave the server wedged; answering cleanly also gives the
// client a response instead of a reset). http.ErrAbortHandler is
// re-panicked — that is net/http's own abort protocol.
func recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			log.Printf("server: panic serving %s %s: %v", r.Method, r.URL.Path, p)
			httpError(w, http.StatusInternalServerError, "internal error: %v", p)
		}()
		next.ServeHTTP(w, r)
	})
}
