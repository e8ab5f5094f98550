// Shard mode: a wearlockd can serve as one shard of a consistent-hash
// cluster behind cmd/wearlock-gateway. The daemon is configured with the
// full global fleet (every shard derives the same per-device RNG streams
// from the same base seed, so device i's pairing is identical everywhere
// until traffic diverges it) but serves only the device set the gateway
// registers it for. Requests for devices outside that set answer 421
// (Misdirected Request) — the routing-race signal the gateway re-resolves
// on — and devices fenced for an in-progress handoff answer 503 +
// Retry-After, so no request is ever silently dropped.
//
// A daemon that was never registered serves every device, which is what
// keeps standalone mode (and every pre-cluster test) byte-identical to
// the unsharded daemon.
package service

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"

	"wearlock/internal/cluster"
	"wearlock/internal/otp"
)

// Shard-mode service errors (HTTP mappings in handleUnlock).
var (
	// ErrNotOwned rejects requests for devices this shard is not
	// registered to serve. HTTP: 421 Misdirected Request.
	ErrNotOwned = errors.New("service: device not owned by this shard")
	// ErrFenced rejects requests for devices frozen mid-handoff. HTTP:
	// 503 + Retry-After (the range is seconds from serving elsewhere).
	ErrFenced = errors.New("service: device fenced for handoff")
)

// shardState is the cluster-membership view the gateway pushes down via
// /cluster/v1/register and the handoff endpoints mutate.
type shardState struct {
	mu      sync.Mutex
	enabled bool // set by the first registration, never cleared
	epoch   uint64
	owned   map[int]bool
	fenced  map[int]bool
	// ownedList caches the sorted owned IDs for round-robin picking; nil
	// when empty.
	ownedList []int
}

// shardAdmit gates one admission on ownership. Standalone daemons admit
// everything.
func (s *Service) shardAdmit(id int) error {
	s.shard.mu.Lock()
	defer s.shard.mu.Unlock()
	if !s.shard.enabled {
		return nil
	}
	if s.shard.fenced[id] {
		return ErrFenced
	}
	if !s.shard.owned[id] {
		return ErrNotOwned
	}
	return nil
}

// shardFenced reports whether a device is frozen for handoff. Checked
// under dev.mu by the session body so a session admitted before the
// fence but scheduled after it cannot mutate counters the tail export
// already shipped.
func (s *Service) shardFenced(id int) bool {
	s.shard.mu.Lock()
	defer s.shard.mu.Unlock()
	return s.shard.enabled && s.shard.fenced[id]
}

// shardOwnedList returns the sorted owned IDs for round-robin, nil when
// the daemon is standalone or owns nothing.
func (s *Service) shardOwnedList() []int {
	s.shard.mu.Lock()
	defer s.shard.mu.Unlock()
	if !s.shard.enabled {
		return nil
	}
	return s.shard.ownedList
}

// shardEpochGate validates a control message's epoch: stale epochs are
// rejected (a gateway that lost a topology race must not mutate
// ownership), newer ones adopted.
func (s *Service) shardEpochGate(epoch uint64) error {
	s.shard.mu.Lock()
	defer s.shard.mu.Unlock()
	if s.shard.enabled && epoch < s.shard.epoch {
		return fmt.Errorf("service: stale cluster epoch %d (current %d)", epoch, s.shard.epoch)
	}
	if epoch > s.shard.epoch {
		s.shard.epoch = epoch
	}
	return nil
}

// shardApplyRegistration installs an ownership set. Registration is the
// cluster's idempotent "this is your assignment" message; it also clears
// every fence, which is how an aborted handoff unfences its source.
func (s *Service) shardApplyRegistration(req *cluster.RegisterRequest) error {
	for _, id := range req.Owned {
		if id < 0 || id >= len(s.devices) {
			return fmt.Errorf("service: registration owns device %d outside fleet [0,%d)", id, len(s.devices))
		}
	}
	s.shard.mu.Lock()
	defer s.shard.mu.Unlock()
	if s.shard.enabled && req.Epoch < s.shard.epoch {
		return fmt.Errorf("service: stale cluster epoch %d (current %d)", req.Epoch, s.shard.epoch)
	}
	s.shard.enabled = true
	s.shard.epoch = req.Epoch
	s.shard.owned = make(map[int]bool, len(req.Owned))
	for _, id := range req.Owned {
		s.shard.owned[id] = true
	}
	s.shard.fenced = make(map[int]bool)
	s.shard.ownedList = append([]int(nil), req.Owned...)
	sort.Ints(s.shard.ownedList)
	if len(s.shard.ownedList) == 0 {
		s.shard.ownedList = nil
	}
	return nil
}

// shardFence freezes a device set for handoff.
func (s *Service) shardFence(ids []int) {
	s.shard.mu.Lock()
	defer s.shard.mu.Unlock()
	if s.shard.fenced == nil {
		s.shard.fenced = make(map[int]bool)
	}
	for _, id := range ids {
		s.shard.fenced[id] = true
	}
}

// shardAdoptOwned adds devices to the owned set (handoff target, adopt
// step) and clears any fence on them.
func (s *Service) shardAdoptOwned(ids []int) {
	s.shard.mu.Lock()
	defer s.shard.mu.Unlock()
	s.shard.enabled = true
	if s.shard.owned == nil {
		s.shard.owned = make(map[int]bool)
	}
	for _, id := range ids {
		s.shard.owned[id] = true
		delete(s.shard.fenced, id)
	}
	s.shard.rebuildOwnedListLocked()
}

// shardRelease drops devices from the owned set (handoff source, release
// step). Fences clear too: the devices now answer 421, not 503.
func (s *Service) shardRelease(ids []int) int {
	s.shard.mu.Lock()
	defer s.shard.mu.Unlock()
	released := 0
	for _, id := range ids {
		if s.shard.owned[id] {
			released++
		}
		delete(s.shard.owned, id)
		delete(s.shard.fenced, id)
	}
	s.shard.rebuildOwnedListLocked()
	return released
}

func (st *shardState) rebuildOwnedListLocked() {
	st.ownedList = st.ownedList[:0]
	for id := range st.owned {
		st.ownedList = append(st.ownedList, id)
	}
	sort.Ints(st.ownedList)
	if len(st.ownedList) == 0 {
		st.ownedList = nil
	}
}

// shardSnapshot reads (epoch, owned count) for heartbeats.
func (s *Service) shardSnapshot() (uint64, int) {
	s.shard.mu.Lock()
	defer s.shard.mu.Unlock()
	return s.shard.epoch, len(s.shard.owned)
}

// shardID is the identity stamped on wire acks: the configured shard ID,
// or "standalone".
func (s *Service) shardID() string {
	if s.cfg.ShardID != "" {
		return s.cfg.ShardID
	}
	return "standalone"
}

// --- Wire endpoints -----------------------------------------------------

// clusterRoutes mounts the gateway↔shard control protocol.
func (s *Service) clusterRoutes(mux *http.ServeMux) {
	mux.HandleFunc("POST /cluster/v1/register", s.handleClusterRegister)
	mux.HandleFunc("POST /cluster/v1/heartbeat", s.handleClusterHeartbeat)
	mux.HandleFunc("POST /cluster/v1/export-range", s.handleClusterExport)
	mux.HandleFunc("POST /cluster/v1/import-range", s.handleClusterImport)
	mux.HandleFunc("POST /cluster/v1/release-range", s.handleClusterRelease)
	mux.HandleFunc("GET "+cluster.UnlockStreamPath, s.handleUnlockStream)
}

// readWire decodes one framed request body.
func readWire[T any](r *http.Request, want cluster.MsgType) (*T, error) {
	data, err := io.ReadAll(io.LimitReader(r.Body, cluster.MaxWireSize+64))
	if err != nil {
		return nil, err
	}
	return cluster.DecodeAs[T](data, want)
}

// writeWire frames and sends one response message.
func writeWire(w http.ResponseWriter, status int, t cluster.MsgType, payload any) {
	data, err := cluster.Encode(t, payload)
	if err != nil {
		status = http.StatusInternalServerError
		data, _ = cluster.Encode(cluster.MsgError, &cluster.ErrorPayload{Error: err.Error()})
	}
	w.Header().Set("Content-Type", cluster.WireContentType)
	w.WriteHeader(status)
	_, _ = w.Write(data)
}

// wireError answers a typed wire-level error.
func wireError(w http.ResponseWriter, status int, err error) {
	writeWire(w, status, cluster.MsgError, &cluster.ErrorPayload{Error: err.Error()})
}

func (s *Service) handleClusterRegister(w http.ResponseWriter, r *http.Request) {
	req, err := readWire[cluster.RegisterRequest](r, cluster.MsgRegister)
	if err != nil {
		wireError(w, http.StatusBadRequest, err)
		return
	}
	if s.cfg.ShardID != "" && req.ShardID != s.cfg.ShardID {
		wireError(w, http.StatusConflict,
			fmt.Errorf("service: registered as %q but this daemon is shard %q", req.ShardID, s.cfg.ShardID))
		return
	}
	if req.TotalDevices > len(s.devices) {
		wireError(w, http.StatusConflict,
			fmt.Errorf("service: cluster device space %d exceeds this daemon's fleet %d", req.TotalDevices, len(s.devices)))
		return
	}
	if err := s.shardApplyRegistration(req); err != nil {
		wireError(w, http.StatusConflict, err)
		return
	}
	rec, ready := s.Ready()
	writeWire(w, http.StatusOK, cluster.MsgRegisterAck, &cluster.RegisterResponse{
		ShardID:   s.shardID(),
		Epoch:     req.Epoch,
		GoVersion: runtime.Version(),
		Devices:   len(s.devices),
		Ready:     ready && rec.Err == nil,
	})
}

func (s *Service) handleClusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	req, err := readWire[cluster.HeartbeatRequest](r, cluster.MsgHeartbeat)
	if err != nil {
		wireError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.shardEpochGate(req.Epoch); err != nil {
		wireError(w, http.StatusConflict, err)
		return
	}
	rec, ready := s.Ready()
	epoch, ownedCount := s.shardSnapshot()
	writeWire(w, http.StatusOK, cluster.MsgHeartbeatAck, &cluster.HeartbeatResponse{
		ShardID:    s.shardID(),
		Epoch:      epoch,
		Ready:      ready && rec.Err == nil,
		Draining:   s.Draining(),
		Inflight:   s.m.inflight.Value(),
		OwnedCount: ownedCount,
	})
}

// handleClusterExport is the handoff source's half. Without Fence it is a
// live snapshot: the range's durable records while the shard keeps
// serving. With Fence it freezes the range, waits out each device's
// in-flight session (the session holds dev.mu, so taking the lock IS the
// quiesce), commits the final state, and exports the tail past Since.
func (s *Service) handleClusterExport(w http.ResponseWriter, r *http.Request) {
	req, err := readWire[cluster.ExportRangeRequest](r, cluster.MsgExportRange)
	if err != nil {
		wireError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.shardClusterReady(); err != nil {
		wireError(w, http.StatusServiceUnavailable, err)
		return
	}
	if err := s.shardEpochGate(req.Epoch); err != nil {
		wireError(w, http.StatusConflict, err)
		return
	}
	for _, id := range req.Devices {
		if id < 0 || id >= len(s.devices) {
			wireError(w, http.StatusBadRequest, fmt.Errorf("service: export of device %d outside fleet [0,%d)", id, len(s.devices)))
			return
		}
	}
	fenced := 0
	if req.Fence {
		s.shardFence(req.Devices)
		fenced = len(req.Devices)
		// Quiesce + final commit, all devices concurrently: each worker
		// blocks on its device's lock, and airtime pacing holds dev.mu for
		// a whole protocol timeline, so a sequential walk would cost the
		// SUM of in-flight sessions and blow the gateway's call budget on
		// large ranges — concurrent, it costs the max. The store serializes
		// the commits internally. After the wait no session can mutate the
		// range: new admissions see the fence in Submit, and already-queued
		// sessions see it under dev.mu and fail without touching counters.
		var wg sync.WaitGroup
		cerrs := make([]error, len(req.Devices))
		for i, id := range req.Devices {
			wg.Add(1)
			go func(i, id int) {
				defer wg.Done()
				dev := s.devices[id]
				dev.lock()
				cerrs[i] = s.commitDeviceLocked(dev)
				dev.mu.Unlock()
			}(i, id)
		}
		wg.Wait()
		if cerr := errors.Join(cerrs...); cerr != nil {
			wireError(w, http.StatusInternalServerError, cerr)
			return
		}
	}
	recs, lastSeq, err := s.store.ExportRange(req.Devices, req.Since)
	if err != nil {
		wireError(w, http.StatusInternalServerError, err)
		return
	}
	writeWire(w, http.StatusOK, cluster.MsgExportRangeAck, &cluster.ExportRangeResponse{
		ShardID: s.shardID(),
		Records: recs,
		LastSeq: lastSeq,
		Fenced:  fenced,
	})
}

// handleClusterImport is the handoff target's half: replay the shipped
// records into this shard's own durable store (accepted ⇒ durable —
// every record is on this shard's WAL before the ack), and on Adopt,
// restore the in-memory devices from the merged state and take
// ownership. The restore is the crash-recovery path: RNG SkipTo to the
// persisted draw position, then RestoreState with the widened resync
// look-ahead. SkipTo's cost is logarithmic in a long-lived device's
// position, so adopting a range does not get slower with its history.
func (s *Service) handleClusterImport(w http.ResponseWriter, r *http.Request) {
	req, err := readWire[cluster.ImportRangeRequest](r, cluster.MsgImportRange)
	if err != nil {
		wireError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.shardClusterReady(); err != nil {
		wireError(w, http.StatusServiceUnavailable, err)
		return
	}
	if err := s.shardEpochGate(req.Epoch); err != nil {
		wireError(w, http.StatusConflict, err)
		return
	}
	for _, id := range req.Devices {
		if id < 0 || id >= len(s.devices) {
			wireError(w, http.StatusBadRequest, fmt.Errorf("service: import of device %d outside fleet [0,%d)", id, len(s.devices)))
			return
		}
	}
	imported, err := s.store.ImportRecords(req.Records)
	if err != nil {
		wireError(w, http.StatusInternalServerError, err)
		return
	}
	adopted := 0
	if req.Adopt {
		for _, id := range req.Devices {
			ds, ok := s.store.Device(id)
			if !ok {
				wireError(w, http.StatusInternalServerError,
					fmt.Errorf("service: adopting device %d with no durable state", id))
				return
			}
			dev := s.devices[id]
			dev.lock()
			rerr := dev.src.SkipTo(ds.RngDraws)
			if rerr == nil {
				rerr = dev.sys.RestoreState(toCoreExport(ds), otp.DefaultResyncLookAhead)
			}
			dev.mu.Unlock()
			if rerr != nil {
				wireError(w, http.StatusInternalServerError,
					fmt.Errorf("service: restoring device %d from import: %w", id, rerr))
				return
			}
			adopted++
		}
		s.shardAdoptOwned(req.Devices)
	}
	writeWire(w, http.StatusOK, cluster.MsgImportRangeAck, &cluster.ImportRangeResponse{
		ShardID:  s.shardID(),
		Imported: imported,
		Adopted:  adopted,
	})
}

func (s *Service) handleClusterRelease(w http.ResponseWriter, r *http.Request) {
	req, err := readWire[cluster.ReleaseRangeRequest](r, cluster.MsgReleaseRange)
	if err != nil {
		wireError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.shardEpochGate(req.Epoch); err != nil {
		wireError(w, http.StatusConflict, err)
		return
	}
	writeWire(w, http.StatusOK, cluster.MsgReleaseRangeAck, &cluster.ReleaseRangeResponse{
		ShardID:  s.shardID(),
		Released: s.shardRelease(req.Devices),
	})
}

// shardClusterReady gates handoff endpoints on recovery + a durable
// store: range export/import without a WAL would break the shipped
// state's durability promise.
func (s *Service) shardClusterReady() error {
	rec, ready := s.Ready()
	if !ready {
		return ErrRecovering
	}
	if rec.Err != nil {
		return fmt.Errorf("%w: %v", ErrRecovering, rec.Err)
	}
	if s.store == nil {
		return errors.New("service: cluster range transfer requires a durable state dir (-state)")
	}
	return nil
}
