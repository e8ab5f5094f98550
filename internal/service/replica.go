// Replica mode: warm-standby replication and fenced promotion.
//
// A primary wearlockd accepts a follower's attach handshake
// (/replica/v1/register) and starts an internal/replica Shipper that
// streams its durable history — snapshot bootstrap, then the live
// group-commit tail — to the follower over one long-lived connection
// (GET /replica/v1/stream, upgraded), one WLC1 frame each way per batch.
// Session acknowledgement couples to the stream: after its commit is
// locally durable, a session waits until the follower has acked its
// record (synchronous mode, or within the bounded-lag window), so the
// service contract becomes accepted ⇒ durable ⇒ replicated-or-fenced.
//
// A follower (Config.Follow) refuses unlock traffic with 503 while it
// applies the stream through its own durable store, warming its
// in-memory devices after every batch so promotion has almost nothing
// left to do. The gateway's /replica/v1/promote order — carrying a
// freshly fenced epoch — finishes the reconcile, installs the shard
// registration, and flips the follower into a serving primary; any
// straggling append from the old primary is refused with 409, which the
// old primary's shipper surfaces as a fence to its own waiters.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"wearlock/internal/cluster"
	"wearlock/internal/replica"
	"wearlock/internal/store"
	"wearlock/internal/telemetry"
)

// ErrFollowing rejects unlock submissions on a warm standby: the
// follower's counters belong to the primary's stream until promotion.
// HTTP: 503 + Retry-After.
var ErrFollowing = errors.New("service: following a primary (not serving)")

// replState is the service's replication role, both directions.
type replState struct {
	mu sync.Mutex
	// Primary side: the shipper streaming to the attached follower, and
	// the connection it streams over.
	shipper *replica.Shipper
	stream  *replStream
	// Follower side; inbound serves the primary's streams.
	recv      *replica.Receiver
	following bool
	promoted  bool
	inbound   *cluster.StreamServer
	// warm is replWarmDevices' read storage; the receiver applies, and
	// so warms, one batch at a time.
	warm store.DeviceState
}

// replStreamProto is the Upgrade token of the replication stream.
const replStreamProto = "wlc1-replica"

// replicaRoutes mounts the replication control endpoints.
func (s *Service) replicaRoutes(mux *http.ServeMux) {
	mux.HandleFunc("POST /replica/v1/register", s.handleReplicaRegister)
	mux.HandleFunc("GET /replica/v1/stream", s.handleReplicaStream)
	mux.HandleFunc("POST /replica/v1/promote", s.handleReplicaPromote)
	mux.HandleFunc("GET /replica/v1/status", s.handleReplicaStatus)
}

// isFollowing reports whether the daemon is an unpromoted standby.
func (s *Service) isFollowing() bool {
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	return s.repl.following && !s.repl.promoted
}

// ReplicaInfo is the /replica/v1/status body and the bench harness's
// in-process view of replication progress.
type ReplicaInfo struct {
	// Role is "standalone", "primary" (shipper attached or attaching),
	// "follower", or "promoted".
	Role     string                  `json:"role"`
	Shipper  *replica.ShipperStatus  `json:"shipper,omitempty"`
	Receiver *replica.ReceiverStatus `json:"receiver,omitempty"`
}

// ReplicaStatus reports the daemon's replication role and progress.
func (s *Service) ReplicaStatus() ReplicaInfo {
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	info := ReplicaInfo{Role: "standalone"}
	switch {
	case s.repl.promoted:
		info.Role = "promoted"
	case s.repl.following:
		info.Role = "follower"
	case s.repl.shipper != nil:
		info.Role = "primary"
	}
	if s.repl.shipper != nil {
		st := s.repl.shipper.Status()
		st.StreamDials = s.m.replStreamDials.Value()
		info.Shipper = &st
	}
	if s.repl.recv != nil {
		st := s.repl.recv.Status()
		info.Receiver = &st
	}
	return info
}

func (s *Service) handleReplicaStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.ReplicaStatus())
}

// ReplicaAttached reports whether this primary's follower has finished
// bootstrapping and is riding the live tail (the promotable state).
func (s *Service) ReplicaAttached() bool {
	s.repl.mu.Lock()
	sh := s.repl.shipper
	s.repl.mu.Unlock()
	return sh != nil && sh.Attached()
}

// replClose tears replication down both ways (shutdown and kill paths),
// waiting for the inbound streams' goroutines. Idempotent.
func (s *Service) replClose() {
	s.repl.mu.Lock()
	sh, out := s.repl.shipper, s.repl.stream
	s.repl.shipper, s.repl.stream = nil, nil
	s.repl.mu.Unlock()
	replStop(sh, out)
	s.repl.inbound.Close()
}

// replStop stops a shipper, then hangs up its stream; once the shipper's
// goroutine is gone nothing sends on the stream again. Nil-safe.
func replStop(sh *replica.Shipper, out *replStream) {
	if sh != nil {
		sh.Close()
	}
	if out != nil && out.st != nil {
		out.st.Close()
	}
}

// replWaitReplicated holds a session's acknowledgement until its
// durable record is covered by the follower's acks. Called after the
// local commit resolved (the handle's Seq is only valid then). No
// shipper — standalone mode — waits on nothing.
func (s *Service) replWaitReplicated(ctx context.Context, c pendingCommit) error {
	if c.h == nil {
		return nil
	}
	s.repl.mu.Lock()
	sh := s.repl.shipper
	s.repl.mu.Unlock()
	if sh == nil {
		return nil
	}
	if err := sh.WaitReplicated(ctx, c.h.Seq()); err != nil {
		if errors.Is(err, replica.ErrFenced) {
			// A newer epoch owns the shard: this primary must fail the
			// session rather than acknowledge state the cluster has moved
			// past. The client retries through the gateway, which routes to
			// the promoted follower.
			return ErrFenced
		}
		return fmt.Errorf("service: awaiting replication: %w", err)
	}
	return nil
}

// --- Primary side -------------------------------------------------------

// handleReplicaRegister starts (or restarts) shipping to a follower and
// answers once the follower has acked the bootstrap. A follower told it
// is following stops retrying, so a shipper that cannot attach (the
// follower is unreachable at the URL it sent, the primary is fenced, or
// the request ended) is removed and the register fails.
func (s *Service) handleReplicaRegister(w http.ResponseWriter, r *http.Request) {
	req, err := readWire[cluster.ReplicaRegisterRequest](r, cluster.MsgReplicaRegister)
	if err != nil {
		wireError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.shardClusterReady(); err != nil {
		wireError(w, http.StatusServiceUnavailable, err)
		return
	}
	if s.isFollowing() {
		wireError(w, http.StatusConflict, errors.New("service: a follower cannot accept followers"))
		return
	}
	streamURL, err := url.Parse(req.FollowerURL + "/replica/v1/stream")
	if req.FollowerURL == "" || err != nil {
		wireError(w, http.StatusBadRequest, fmt.Errorf("service: replica registration without a follower URL (%v)", err))
		return
	}
	devices := make([]int, len(s.devices))
	for i := range devices {
		devices[i] = i
	}
	out := &replStream{url: streamURL, metric: s.m.replStreamDials}
	sh := replica.StartShipper(replica.ShipperConfig{
		Store:   s.store,
		Devices: devices,
		ServiceState: func() store.ServiceState {
			return s.serviceState()
		},
		Epoch: func() uint64 {
			epoch, _ := s.shardSnapshot()
			return epoch
		},
		ShardID: s.shardID(),
		Send:    out.Send,
		MaxLag:  uint64(s.cfg.ReplicaMaxLag),
		Chaos:   s.cfg.Chaos,
		Seed:    s.cfg.Seed,
		OnState: func(state string) {
			if state == "attached" {
				s.m.replAttached.Set(1)
			} else {
				s.m.replAttached.Set(0)
			}
			if state == "detached" {
				s.m.replDetaches.Inc()
			}
		},
	})
	s.repl.mu.Lock()
	old, oldOut := s.repl.shipper, s.repl.stream
	s.repl.shipper, s.repl.stream = sh, out
	s.repl.mu.Unlock()
	replStop(old, oldOut)
	if err := sh.WaitAttached(r.Context()); err != nil {
		s.repl.mu.Lock()
		if s.repl.shipper == sh { // else a newer register or shutdown replaced it
			s.repl.shipper, s.repl.stream = nil, nil
		}
		s.repl.mu.Unlock()
		replStop(sh, out)
		wireError(w, http.StatusBadGateway, fmt.Errorf("service: replicating to %s: %w", req.FollowerURL, err))
		return
	}
	writeWire(w, http.StatusOK, cluster.MsgReplicaRegisterAck, &cluster.ReplicaRegisterResponse{
		ShardID: s.shardID(),
		LastSeq: s.store.State().LastSeq,
	})
}

// replStream is the primary's end of the replication stream, dialled by
// the first Send and after any transport or framing error. Only the
// shipper's goroutine uses it; replStop closes it after that goroutine.
type replStream struct {
	url    *url.URL           // the follower's /replica/v1/stream
	metric *telemetry.Counter // wearlockd_replica_stream_dials_total
	st     *cluster.Stream    // nil until (re)dialled
	ack    cluster.ReplicaAppendResponse
}

// Send ships one batch frame and reads the answer frame by deadline,
// dialling and upgrading first if need be. The ack it returns is reused
// by the next Send. A refusal keeps the connection; any other error
// closes it, so the shipper's retry redials.
func (rs *replStream) Send(deadline time.Time, req *cluster.ReplicaAppendRequest) (*cluster.ReplicaAppendResponse, error) {
	var err error
	if rs.st == nil {
		rs.metric.Inc()
		if rs.st, err = cluster.DialStream(context.Background(), deadline, rs.url, replStreamProto); err != nil {
			return nil, fmt.Errorf("service: replica stream: %w", err)
		}
	}
	m, err := rs.st.Exchange(deadline, cluster.MsgReplicaAppend, req, &rs.ack)
	switch p := m.Payload.(type) {
	case *cluster.ReplicaAppendResponse:
		return p, nil
	case *cluster.ErrorPayload:
		if sentinel, ok := replStatuses[p.Status]; ok {
			return nil, fmt.Errorf("%w: %s", sentinel, p.Error)
		}
		return nil, fmt.Errorf("service: replica append refused (%d): %s", p.Status, p.Error)
	case nil: // err says why
	default:
		err = fmt.Errorf("unexpected %s frame", m.Type)
	}
	rs.st.Close()
	rs.st = nil
	return nil, fmt.Errorf("service: replica stream: %w", err)
}

// replStatuses maps each refusal status the stream carries to the
// sentinel it stands for; the follower encodes by it, the primary decodes.
var replStatuses = map[int]error{
	http.StatusConflict:            replica.ErrFenced,
	http.StatusPreconditionFailed:  replica.ErrOutOfSync,
	http.StatusUnprocessableEntity: replica.ErrCorrupt,
	http.StatusServiceUnavailable:  ErrRecovering,
}

// wirePeerError extracts the peer's error text from a framed MsgError
// body, falling back to the raw bytes.
func wirePeerError(data []byte) string {
	if m, err := cluster.Decode(data); err == nil {
		if p, ok := m.Payload.(*cluster.ErrorPayload); ok {
			return p.Error
		}
	}
	if len(data) > 200 {
		data = data[:200]
	}
	return string(data)
}

// --- Follower side ------------------------------------------------------

// replReceiverLocked lazily builds the follower's stream receiver (the
// store exists only after recovery; callers have passed
// shardClusterReady). Caller holds s.repl.mu.
func (s *Service) replReceiverLocked() *replica.Receiver {
	if s.repl.recv == nil {
		s.repl.recv = replica.NewReceiver(replica.ReceiverConfig{
			Store:      s.store,
			FollowerID: s.shardID(),
			OnApplied:  s.replWarmDevices,
		})
	}
	return s.repl.recv
}

// replReceiver is replReceiverLocked behind the lock.
func (s *Service) replReceiver() *replica.Receiver {
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	return s.replReceiverLocked()
}

// replWarmDevices fast-forwards the in-memory devices a batch touched
// to their merged durable state, so the standby stays one short
// reconcile away from serving: promotion then restores counters over
// streams already at their positions instead of seeking every device's
// stream inside the downtime window. Failures are tolerated here —
// promotion repeats the restore and repairs what it cannot trust.
func (s *Service) replWarmDevices(ids []int) {
	ds := &s.repl.warm
	for _, id := range ids {
		if id < 0 || id >= len(s.devices) || !s.store.DeviceInto(id, ds) {
			continue
		}
		dev := s.devices[id]
		dev.lock()
		_ = dev.restoreLocked(*ds)
		dev.mu.Unlock()
	}
	s.m.replAppliedBatches.Inc()
}

// handleReplicaStream upgrades a primary's GET and answers each batch
// frame with one frame until either end closes. A frame it cannot read
// and decode whole closes the stream unapplied; the primary re-sends it.
//
// Each batch decodes into the stream's one request, records included: a
// batch is applied, copied into the store's commit queue, before the
// next frame is read.
func (s *Service) handleReplicaStream(w http.ResponseWriter, r *http.Request) {
	var batch cluster.ReplicaAppendRequest
	var ack cluster.ReplicaAppendResponse
	s.repl.inbound.Serve(w, r, func(_ context.Context, frame, out []byte) ([]byte, error) {
		req, err := cluster.DecodeAsInto(frame, cluster.MsgReplicaAppend, &batch)
		if err != nil {
			return out, err
		}
		if ack, err = s.replAppend(req); err == nil {
			return cluster.AppendFrame(out, cluster.MsgReplicaAppendAck, &ack)
		}
		status := http.StatusInternalServerError // the shipper retries it
		for st, sentinel := range replStatuses {
			if errors.Is(err, sentinel) {
				status = st
			}
		}
		return cluster.AppendFrame(out, cluster.MsgError, &cluster.ErrorPayload{Error: err.Error(), Status: status})
	})
}

// replAppend decides one shipped batch: its ack, or a refusal that
// replStatuses classifies.
//
// The batch applies under repl.mu, the lock promotion takes. That is a
// fencing invariant, not a convenience: a batch slipping in between the
// promote's reconcile and its promoted-flag flip could advance durable
// counters the freshly promoted verifier has not seen, which is exactly
// the replay window promotion must never open.
func (s *Service) replAppend(req *cluster.ReplicaAppendRequest) (cluster.ReplicaAppendResponse, error) {
	if !s.cfg.Follow {
		return cluster.ReplicaAppendResponse{}, fmt.Errorf("%w: not a follower (-follow)", replica.ErrFenced)
	}
	if err := s.shardClusterReady(); err != nil {
		return cluster.ReplicaAppendResponse{}, err
	}
	if err := s.shardEpochGate(req.Epoch); err != nil {
		return cluster.ReplicaAppendResponse{}, fmt.Errorf("%w: %v", replica.ErrFenced, err)
	}
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	if s.repl.promoted {
		return cluster.ReplicaAppendResponse{}, fmt.Errorf("%w: promoted; stale primary", replica.ErrFenced)
	}
	return s.replReceiverLocked().Apply(req)
}

// handleReplicaPromote executes the gateway's failover order: final
// device reconcile from the durable store, adopt the fleet-level
// admission sequence, install the ownership registration at the fenced
// epoch, and start serving. Idempotent: a retried promote (the gateway
// lost the first ack) answers with the current state.
func (s *Service) handleReplicaPromote(w http.ResponseWriter, r *http.Request) {
	req, err := readWire[cluster.PromoteRequest](r, cluster.MsgPromote)
	if err != nil {
		wireError(w, http.StatusBadRequest, err)
		return
	}
	if !s.cfg.Follow {
		wireError(w, http.StatusConflict, errors.New("service: not a follower (-follow)"))
		return
	}
	if err := s.shardClusterReady(); err != nil {
		wireError(w, http.StatusServiceUnavailable, err)
		return
	}
	// Serialize against in-flight appends: once this lock is held, no
	// batch can be mid-apply, and the promoted flag set below fences
	// everything that arrives later.
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	if s.repl.promoted {
		epoch, owned := s.shardSnapshot()
		writeWire(w, http.StatusOK, cluster.MsgPromoteAck, &cluster.PromoteResponse{
			ShardID: s.shardID(), Epoch: epoch, AppliedSeq: s.replAppliedSeqLocked(), Devices: owned,
		})
		return
	}
	if err := s.shardEpochGate(req.Epoch); err != nil {
		wireError(w, http.StatusConflict, err)
		return
	}
	if err := s.promoteReconcile(req.Owned); err != nil {
		wireError(w, http.StatusInternalServerError, err)
		return
	}
	// The admission sequence seeds per-session fault streams and session
	// IDs; the promoted daemon must resume above the primary's durable
	// high-water mark, exactly like crash recovery does.
	st := s.store.State()
	s.mu.Lock()
	if st.Service.Seq > s.seq {
		s.seq = st.Service.Seq
	}
	s.mu.Unlock()
	if nd := st.Service.NextDev; nd > s.nextDev.Load() {
		s.nextDev.Store(nd)
	}
	if err := s.shardApplyRegistration(&cluster.RegisterRequest{
		ShardID:      req.ShardID,
		Epoch:        req.Epoch,
		TotalDevices: req.TotalDevices,
		Owned:        req.Owned,
	}); err != nil {
		wireError(w, http.StatusConflict, err)
		return
	}
	s.repl.promoted = true
	s.repl.following = false
	// The old primary's stream ends here; a redial meets the fence.
	s.repl.inbound.HangUp()
	s.m.replPromotions.Inc()
	writeWire(w, http.StatusOK, cluster.MsgPromoteAck, &cluster.PromoteResponse{
		ShardID:    s.shardID(),
		Epoch:      req.Epoch,
		AppliedSeq: s.replAppliedSeqLocked(),
		Devices:    len(req.Owned),
	})
}

// replAppliedSeqLocked reads the receiver's source-sequence high-water
// mark; caller holds repl.mu.
func (s *Service) replAppliedSeqLocked() uint64 {
	if s.repl.recv == nil {
		return 0
	}
	return s.repl.recv.AppliedSeq()
}

// promoteReconcile restores every owned device from the merged durable
// state — the restoreLocked body a recovered device's first touch runs,
// but over already-warmed devices, so the stream fast-forward was paid
// incrementally during replication and SkipTo here is usually a no-op.
// A device the stream never mentioned stays unbuilt, and its first touch
// gives it the seed-fresh pairing (both sides derive it identically from
// the shared base seed); a device whose restored state the core refuses
// is re-paired with a fresh key rather than trusted.
func (s *Service) promoteReconcile(owned []int) error {
	for _, id := range owned {
		if id < 0 || id >= len(s.devices) {
			return fmt.Errorf("service: promotion owns device %d outside fleet [0,%d)", id, len(s.devices))
		}
	}
	for _, id := range owned {
		ds, ok := s.store.Device(id)
		if !ok {
			continue
		}
		dev := s.devices[id]
		dev.lock()
		if rerr := dev.restoreLocked(ds); rerr != nil {
			// Mirror recovery's discipline: a counter that cannot be
			// trusted must never become a replay window — re-pair instead.
			rerr = dev.sys.Repair()
			if rerr == nil {
				rerr = s.commitDeviceLocked(dev)
			}
			if rerr != nil {
				dev.mu.Unlock()
				return fmt.Errorf("service: promoting device %d: %w", id, rerr)
			}
			s.m.repairs.Inc()
		}
		dev.mu.Unlock()
	}
	return nil
}

// FollowPrimary announces this follower to its primary and asks it to
// start shipping. Call after the HTTP listener is up (selfURL must be
// reachable from the primary). The stream itself is primary-driven;
// this returns once the attach handshake is acknowledged.
func (s *Service) FollowPrimary(ctx context.Context, primaryURL, selfURL string) error {
	if !s.cfg.Follow {
		return errors.New("service: FollowPrimary on a non-follower (set Config.Follow)")
	}
	if err := s.WaitReady(ctx); err != nil {
		return fmt.Errorf("service: follower not ready: %w", err)
	}
	if s.store == nil {
		return errors.New("service: follower requires a durable state dir")
	}
	recv := s.replReceiver()
	body, err := cluster.Encode(cluster.MsgReplicaRegister, &cluster.ReplicaRegisterRequest{
		FollowerURL: selfURL,
		FollowerID:  s.shardID(),
		AppliedSeq:  recv.AppliedSeq(),
	})
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, primaryURL+"/replica/v1/register", bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", cluster.WireContentType)
	hres, err := s.replClient.Do(hreq)
	if err != nil {
		return fmt.Errorf("service: attaching to primary: %w", err)
	}
	defer hres.Body.Close()
	data, err := io.ReadAll(io.LimitReader(hres.Body, cluster.MaxWireSize+64))
	if err != nil {
		return err
	}
	if hres.StatusCode != http.StatusOK {
		return fmt.Errorf("service: attaching to primary: HTTP %d: %s", hres.StatusCode, wirePeerError(data))
	}
	if _, err := cluster.DecodeAs[cluster.ReplicaRegisterResponse](data, cluster.MsgReplicaRegisterAck); err != nil {
		return err
	}
	return nil
}

// newReplClient builds the replication HTTP client.
func newReplClient() *http.Client {
	return &http.Client{Timeout: 10 * time.Second}
}
