package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"wearlock/internal/cluster"
)

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the daemon's HTTP API:
//
//	POST /v1/unlock           run an unlock session (429 on backpressure);
//	                          the body is a cluster.UnlockRequest
//	GET  /v1/sessions/{id}    session status/result
//	GET  /healthz             liveness, capacity, scenario catalog
//	GET  /readyz              readiness: 503 "recovering" during startup replay
//	GET  /metrics             Prometheus text exposition
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/unlock", s.handleUnlock)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSession)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Gateway↔shard control protocol (see shard.go); inert until a
	// gateway registers this daemon.
	s.clusterRoutes(mux)
	// Warm-standby replication control (see replica.go).
	s.replicaRoutes(mux)
	return mux
}

// ReadyStatus is the /readyz body.
type ReadyStatus struct {
	// Status is "ok", "recovering" (startup replay still running),
	// "failed" (recovery hit a terminal error; the daemon rejects
	// traffic), or "following" (healthy warm standby applying a primary's
	// stream; unlock traffic is refused until promotion).
	Status string `json:"status"`
	// Recovery details, present once recovery finished with a state dir.
	Error            string  `json:"error,omitempty"`
	RecoverySeconds  float64 `json:"recovery_seconds,omitempty"`
	RecoveredRecords int     `json:"recovered_records,omitempty"`
	Corruptions      int     `json:"corruptions,omitempty"`
	RepairedDevices  []int   `json:"repaired_devices,omitempty"`
}

func (s *Service) handleReady(w http.ResponseWriter, _ *http.Request) {
	rec, ready := s.Ready()
	switch {
	case !ready:
		writeJSON(w, http.StatusServiceUnavailable, ReadyStatus{Status: "recovering"})
	case rec.Err != nil:
		writeJSON(w, http.StatusServiceUnavailable, ReadyStatus{
			Status: "failed",
			Error:  rec.Err.Error(),
		})
	default:
		st := ReadyStatus{Status: "ok"}
		if s.isFollowing() {
			st.Status = "following"
		}
		if rec.Enabled {
			st.RecoverySeconds = rec.Duration.Seconds()
			st.RecoveredRecords = rec.Store.RecoveredRecords
			st.Corruptions = rec.Store.Corruptions
			st.RepairedDevices = rec.Repaired
		}
		writeJSON(w, http.StatusOK, st)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Service) handleUnlock(w http.ResponseWriter, r *http.Request) {
	var req cluster.UnlockRequest
	if r.Body != nil && r.ContentLength != 0 {
		body := http.MaxBytesReader(w, r.Body, cluster.MaxUnlockBody)
		if err := cluster.ReadUnlockRequest(body, r.ContentLength, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad request body: %v", err)})
			return
		}
	}
	device := -1
	if req.Device != nil {
		device = *req.Device
	}
	sess, err := s.Submit(Request{
		Scenario: req.Scenario,
		Device:   device,
		Timeout:  time.Duration(req.TimeoutMS) * time.Millisecond,
	})
	switch {
	case err == nil:
	case errors.Is(err, ErrQueueFull):
		// The queue drains at session pace — tell the client when a slot
		// is plausibly free rather than inviting an immediate retry: the
		// backlog divided by the pool's observed drain rate.
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfter()))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrFenced):
		// The device is mid-handoff; the range serves elsewhere within
		// seconds. Retry-After so the request is deferred, never dropped.
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfter()))
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrNotOwned):
		// Routing race: the gateway re-resolves ownership on 421.
		writeJSON(w, http.StatusMisdirectedRequest, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrFollowing):
		// Warm standby: the primary (or its promoted successor) serves.
		// Retry-After because promotion flips this daemon live in seconds.
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfter()))
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrDraining), errors.Is(err, ErrRecovering):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	default: // unknown scenario/device
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	if req.Wait != nil && !*req.Wait {
		writeJSON(w, http.StatusAccepted, sess.Snapshot())
		return
	}
	// Synchronous mode: the session owns its deadline, so waiting on the
	// request context alone is enough — if the client disconnects the
	// session still finishes and stays queryable.
	if err := sess.Wait(r.Context()); err != nil {
		writeJSON(w, http.StatusAccepted, sess.Snapshot())
		return
	}
	writeJSON(w, http.StatusOK, sess.Snapshot())
}

func (s *Service) handleSession(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown session (finished sessions expire after the TTL)"})
		return
	}
	writeJSON(w, http.StatusOK, sess.Snapshot())
}

func (s *Service) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := s.Health()
	status := http.StatusOK
	if h.Status != "ok" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}
