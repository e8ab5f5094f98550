package service

import (
	"context"
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
	b := cluster.GetUnlockBody()
	defer b.Release()
	if err := b.Read(w, r); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	wake := s.wakes.Get().(chan struct{})
	var reply unlockReply
	s.unlockAnswer(r.Context(), &b.Req, wake, &reply)
	s.wakes.Put(wake) // empty again: await's contract
	if reply.retryAfter != "" {
		w.Header().Set("Retry-After", reply.retryAfter)
	}
	buf := s.bodies.Get().(*[]byte)
	var err error
	*buf, err = reply.appendBody((*buf)[:0])
	writeBody(w, reply.status, *buf, err)
	s.bodies.Put(buf)
}

// jsonContentType is the Content-Type value of every unlock and session
// answer, one slice shared by all of them: net/http only reads it.
var jsonContentType = []string{"application/json"}

// writeBody answers status with a JSON body as writeJSON does; a body
// that failed to encode is left out after the status line, as
// json.Encoder leaves it.
func writeBody(w http.ResponseWriter, status int, body []byte, err error) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	if err == nil {
		_, _ = w.Write(body)
	}
}

// handleUnlockStream serves the gateway's unlock stream: each MsgUnlock
// frame is one POST /v1/unlock, answered with a MsgUnlockAck carrying
// the status, Retry-After and body bytes handleUnlock would have sent.
// The request, the wake channel, the reply and the body buffer are the
// stream's, reused frame to frame.
func (s *Service) handleUnlockStream(w http.ResponseWriter, r *http.Request) {
	var (
		unlockReq cluster.UnlockRequest
		wake      = make(chan struct{}, 1)
		reply     unlockReply
		ack       cluster.UnlockResponse
	)
	s.unlockStreams.Serve(w, r, func(ctx context.Context, frame, out []byte) ([]byte, error) {
		req, err := cluster.DecodeAsInto(frame, cluster.MsgUnlock, &unlockReq)
		if err != nil {
			return out, err
		}
		s.unlockAnswer(ctx, req, wake, &reply)
		if ack.Body, err = reply.appendBody(ack.Body[:0]); err != nil {
			return out, err
		}
		ack.Status, ack.RetryAfter = reply.status, reply.retryAfter
		return cluster.AppendFrame(out, cluster.MsgUnlockAck, &ack)
	})
}

// unlockReply is one unlock request's answer: the status, the
// Retry-After value ("" for none) and the body, a refusal's error
// message or else the session's view.
type unlockReply struct {
	status     int
	retryAfter string
	errMsg     string
	view       View
}

// appendBody appends the reply's JSON body, as json.Encoder writes it.
func (r *unlockReply) appendBody(dst []byte) ([]byte, error) {
	if r.errMsg != "" {
		return appendErrorBody(dst, r.errMsg), nil
	}
	return appendView(dst, &r.view)
}

// unlockAnswer runs one unlock request for either transport and fills
// reply with the answer. A synchronous request waits on wake (see
// Session.await).
func (s *Service) unlockAnswer(ctx context.Context, req *cluster.UnlockRequest, wake chan struct{}, reply *unlockReply) {
	*reply = unlockReply{}
	device := -1
	if req.Device != nil {
		device = *req.Device
	}
	sess, err := s.Submit(Request{
		Scenario: req.Scenario,
		Device:   device,
		Timeout:  time.Duration(req.TimeoutMS) * time.Millisecond,
	})
	if err != nil {
		reply.status, reply.retryAfter = s.refusal(err)
		reply.errMsg = err.Error()
		return
	}
	reply.status = http.StatusOK
	switch {
	case req.Wait != nil && !*req.Wait:
		reply.status = http.StatusAccepted
	case sess.await(ctx, wake) != nil:
		// Synchronous mode: the session owns its deadline, so waiting on
		// the request context alone is enough — if the client disconnects
		// the session still finishes and stays queryable.
		reply.status = http.StatusAccepted
	}
	reply.view = sess.view()
}

// refusal maps a Submit error onto its status and Retry-After value.
func (s *Service) refusal(err error) (int, string) {
	switch {
	case errors.Is(err, ErrQueueFull):
		// The queue drains at session pace — tell the client when a slot
		// is plausibly free rather than inviting an immediate retry: the
		// backlog divided by the pool's observed drain rate.
		return http.StatusTooManyRequests, strconv.Itoa(s.RetryAfter())
	case errors.Is(err, ErrFenced):
		// The device is mid-handoff; the range serves elsewhere within
		// seconds. Retry-After so the request is deferred, never dropped.
		return http.StatusServiceUnavailable, strconv.Itoa(s.RetryAfter())
	case errors.Is(err, ErrNotOwned):
		// Routing race: the gateway re-resolves ownership on 421.
		return http.StatusMisdirectedRequest, ""
	case errors.Is(err, ErrFollowing):
		// Warm standby: the primary (or its promoted successor) serves.
		// Retry-After because promotion flips this daemon live in seconds.
		return http.StatusServiceUnavailable, strconv.Itoa(s.RetryAfter())
	case errors.Is(err, ErrDraining), errors.Is(err, ErrRecovering):
		return http.StatusServiceUnavailable, ""
	default: // unknown scenario/device
		return http.StatusBadRequest, ""
	}
}

func (s *Service) handleSession(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown session (finished sessions expire after the TTL)"})
		return
	}
	v := sess.view()
	buf := s.bodies.Get().(*[]byte)
	var err error
	*buf, err = appendView((*buf)[:0], &v)
	writeBody(w, http.StatusOK, *buf, err)
	s.bodies.Put(buf)
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
