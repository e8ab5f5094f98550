// Command wearlockd serves concurrent WearLock unlock sessions over
// HTTP. It owns a fleet of simulated phone↔watch pairs, admits requests
// through a bounded queue (answering 429 under overload), and exposes
// live Prometheus metrics. On SIGINT/SIGTERM it stops admitting work,
// drains in-flight sessions, and exits.
//
// Usage:
//
//	wearlockd [-addr :8547] [-devices 64] [-workers 0] [-queue 128]
//	          [-session-ttl 2m] [-request-timeout 30s] [-seed 42]
//	          [-chaos builtin | -chaos schedule.json] [-pprof]
//	          [-state-dir /var/lib/wearlockd] [-snapshot-every 1024]
//	          [-wal-segment-bytes 4194304] [-commit-max-delay 2ms]
//	          [-shard-id s0] [-pace 0.3] [-addr-file /run/wearlockd.addr]
//	          [-follow -replica-of http://primary:8547 [-advertise URL]]
//	          [-replica-max-lag 0]
//
// With -follow the daemon boots as a warm standby: it refuses unlock
// traffic (503 + Retry-After), attaches to -replica-of, and applies the
// primary's replication stream — snapshot bootstrap plus the live
// group-commit WAL tail — into its own durable store, keeping its
// in-memory fleet warm. A gateway configured with -standby (see
// cmd/wearlock-gateway) promotes it on heartbeat loss; promotion fences
// the old primary's epoch, so a half-dead primary can never acknowledge
// a session the promoted standby won't honor. -replica-max-lag relaxes
// the primary-side ack coupling from synchronous (0) to a bounded
// window of records.
//
// With -addr :0 the kernel picks a free port; the daemon prints the
// bound address ("listening host:port") on stdout and, with -addr-file,
// writes it to a file so supervisors and tests can discover it. With
// -shard-id the daemon identifies itself as a cluster shard (see
// cmd/wearlock-gateway): it accepts a gateway's registration on
// /cluster/v1/* and serves only its assigned device range. Standalone
// daemons never see those endpoints fire and behave exactly as before.
//
// With -state-dir the daemon keeps pairing keys and HOTP counters in a
// crash-safe WAL-backed store: every accepted session is fsynced before
// it is reported done, startup replays snapshot + WAL before traffic is
// admitted (GET /readyz answers 503 "recovering" until then, and 503
// "failed" if the state cannot be recovered), and a graceful drain
// compacts the log. Corrupted per-device state degrades to a forced
// re-pair of that device only. Without -state-dir the fleet is
// ephemeral, as before.
//
// Commits from concurrent sessions are group-committed: the store
// batches queued records and issues one fsync per batch, so durable
// throughput scales with concurrency instead of being bounded by one
// fsync per session. -commit-max-delay bounds how long a growing batch
// may absorb arrivals (a lone commit never waits); -wal-segment-bytes
// sets the size at which the WAL rolls to a fresh wal.NNNNN segment
// (sealed segments carry a checkpoint footer so startup replay skips
// already-folded history, and compaction drops them whole). The
// defaults (4 MiB segments, 2ms max delay) suit the acceptance load.
//
// -no-fsync disables the only thing that makes "accepted" mean
// "durable across power loss". The daemon logs a prominent warning and
// exports wearlockd_fsync_disabled=1 so loadgen's store-consistency
// gate refuses to certify such runs.
//
// With -pprof the daemon additionally serves the Go profiling endpoints
// under /debug/pprof/ (CPU profile, heap, goroutines, trace); see the
// "Profiling wearlockd" section of the README. Off by default.
//
// With -chaos the daemon arms a deterministic fault schedule ("builtin"
// for the default mix, or a JSON schedule file) and runs every session
// under the core resilience policy; /metrics grows
// wearlockd_retries_total, wearlockd_degraded_total, and
// wearlockd_fallback_total.
//
// API:
//
//	POST /v1/unlock           {"scenario":"cafe","wait":false,...}
//	GET  /v1/sessions/{id}    poll an asynchronous session
//	GET  /healthz             liveness + capacity + scenario catalog
//	GET  /readyz              state recovery status (always "ok" when ephemeral)
//	GET  /metrics             Prometheus text exposition
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wearlock/internal/scenario/catalog"
	"wearlock/internal/service"
)

func main() {
	os.Exit(run())
}

func run() int {
	def := service.DefaultConfig()
	var (
		addr       = flag.String("addr", ":8547", "listen address")
		devices    = flag.Int("devices", def.Devices, "simulated phone↔watch fleet size")
		workers    = flag.Int("workers", def.Workers, "session worker pool size (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", def.QueueDepth, "admission queue bound (beyond it: HTTP 429)")
		sessionTTL = flag.Duration("session-ttl", def.SessionTTL, "how long finished sessions stay queryable")
		reqTimeout = flag.Duration("request-timeout", def.RequestTimeout, "per-session deadline")
		seed       = flag.Int64("seed", def.Seed, "base seed for the device fleet's random streams")
		drainGrace = flag.Duration("drain-grace", 30*time.Second, "max wait for in-flight sessions on shutdown")
		chaos      = flag.String("chaos", "", "fault schedule: a registered chaos name or a JSON schedule file path (empty = off)")
		pprofOn    = flag.Bool("pprof", false, "serve Go profiling endpoints under /debug/pprof/ (off by default)")
		stateDir   = flag.String("state-dir", "", "durable state directory for pairing keys and HOTP counters (empty = ephemeral)")
		snapEvery  = flag.Int("snapshot-every", 0, "compact the state WAL after this many records (0 = default 1024)")
		noFsync    = flag.Bool("no-fsync", false, "UNSAFE: skip per-commit fsyncs; committed state no longer survives power loss")
		segBytes   = flag.Int64("wal-segment-bytes", 0, "roll the state WAL to a fresh segment at this size (0 = default 4 MiB)")
		commitMaxD = flag.Duration("commit-max-delay", 0, "max time the group committer absorbs arrivals into a growing batch (0 = default 2ms; lone commits never wait)")
		shardID    = flag.String("shard-id", "", "cluster shard identity (stamped on wearlockd_build_info and wire acks; empty = standalone)")
		pace       = flag.Float64("pace", 0, "airtime pacing: hold each device for pace × protocol timeline after a session (0 = off)")
		addrFile   = flag.String("addr-file", "", "write the bound listen address to this file (useful with -addr :0)")
		follow     = flag.Bool("follow", false, "boot as a warm standby: refuse unlock traffic and apply a primary's replication stream (requires -state-dir)")
		replicaOf  = flag.String("replica-of", "", "primary base URL to attach to (with -follow); retried until the primary answers")
		advertise  = flag.String("advertise", "", "base URL the primary should ship to (with -follow; default http://<bound addr>)")
		replicaLag = flag.Int("replica-max-lag", 0, "bounded-lag replication ack window in records when a follower attaches to THIS daemon (0 = synchronous)")
	)
	flag.Parse()

	cfg := def
	cfg.Devices = *devices
	cfg.Workers = *workers
	cfg.QueueDepth = *queue
	cfg.SessionTTL = *sessionTTL
	cfg.RequestTimeout = *reqTimeout
	cfg.Seed = *seed
	cfg.StateDir = *stateDir
	cfg.SnapshotEvery = *snapEvery
	cfg.NoFsync = *noFsync
	cfg.WALSegmentBytes = *segBytes
	cfg.CommitMaxDelay = *commitMaxD
	cfg.ShardID = *shardID
	cfg.PaceAirtime = *pace
	cfg.Follow = *follow
	cfg.ReplicaMaxLag = *replicaLag
	sch, err := catalog.ResolveChaos(*chaos)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wearlockd: %v\n", err)
		return 1
	}
	cfg.Chaos = sch

	logger := log.New(os.Stderr, "wearlockd: ", log.LstdFlags)
	if cfg.NoFsync && cfg.StateDir != "" {
		logger.Print("WARNING: -no-fsync is set: commits are NOT durable across power loss; " +
			"this run exports wearlockd_fsync_disabled=1 and will not pass store-consistency gates")
	}
	svc, err := service.New(cfg)
	if err != nil {
		logger.Print(err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Print(err)
		return 1
	}
	// Announce the bound address on stdout (and optionally to a file):
	// with -addr :0 the kernel picks the port, and orchestration — the
	// cluster integration tests, a gateway supervisor spawning shards —
	// needs a machine-readable way to learn it.
	fmt.Printf("listening %s\n", ln.Addr())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			logger.Print(err)
			return 1
		}
	}
	handler := svc.Handler()
	if *pprofOn {
		// Mount the pprof handlers on an explicit mux rather than relying
		// on net/http/pprof's DefaultServeMux registration, so profiling
		// is genuinely absent from the server unless -pprof is set.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	server := &http.Server{Handler: handler}
	logger.Printf("listening on %s (%d devices, queue %d, scenarios: %s)",
		ln.Addr(), cfg.Devices, cfg.QueueDepth, strings.Join(svc.Scenarios(), " "))
	if *pprofOn {
		logger.Printf("pprof enabled at /debug/pprof/")
	}
	if cfg.Chaos != nil {
		logger.Printf("chaos schedule %q armed (%d rules)", cfg.Chaos.Name, len(cfg.Chaos.Rules))
	}

	// With a state dir, recovery runs concurrently with the listener (the
	// HTTP layer answers 503 + /readyz "recovering" meanwhile). A failed
	// recovery is fatal: the daemon would otherwise serve nothing but
	// 503s forever.
	recoveryFailed := make(chan error, 1)
	if cfg.StateDir != "" {
		logger.Printf("durable state in %s (recovering before admitting traffic; watch /readyz)", cfg.StateDir)
		go func() {
			if err := svc.WaitReady(context.Background()); err != nil {
				recoveryFailed <- err
				return
			}
			rec, _ := svc.Ready()
			logger.Printf("state recovered in %s (log replay %s, device restore %s): %d WAL records, %d decode fallbacks, %d corruptions, %d devices re-paired",
				rec.Duration.Round(time.Millisecond), rec.Store.ReplayDuration.Round(time.Microsecond),
				rec.RestoreDuration.Round(time.Microsecond), rec.Store.RecoveredRecords,
				rec.Store.DecodeFallbacks, rec.Store.Corruptions, len(rec.Repaired))
		}()
	}

	// Serve until a termination signal, then drain before exiting so
	// admitted sessions finish and clients polling them get answers.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- server.Serve(ln) }()

	// Follower mode: after the listener is up (the primary must be able
	// to reach us), attach to the primary and keep retrying while it
	// boots. The stream itself is primary-driven from then on.
	if *follow {
		if *replicaOf == "" {
			logger.Print("-follow requires -replica-of <primary URL>")
			_ = server.Close()
			return 1
		}
		self := *advertise
		if self == "" {
			self = "http://" + ln.Addr().String()
		}
		go func() {
			for {
				actx, cancel := context.WithTimeout(ctx, 15*time.Second)
				err := svc.FollowPrimary(actx, strings.TrimSuffix(*replicaOf, "/"), self)
				cancel()
				if err == nil {
					logger.Printf("following %s (shipping to %s)", *replicaOf, self)
					return
				}
				logger.Printf("attach to primary: %v (retrying)", err)
				select {
				case <-ctx.Done():
					return
				case <-time.After(time.Second):
				}
			}
		}()
	}

	select {
	case err := <-errCh:
		logger.Printf("serve: %v", err)
		return 1
	case err := <-recoveryFailed:
		logger.Printf("state recovery failed: %v", err)
		_ = server.Close()
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	logger.Printf("signal received, draining (grace %s)", *drainGrace)

	grace, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := svc.Shutdown(grace); err != nil {
		logger.Printf("drain incomplete: %v", err)
	}
	if err := server.Shutdown(grace); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("http shutdown: %v", err)
	}
	<-errCh // Serve has returned ErrServerClosed

	h := svc.Health()
	fmt.Printf("drained; served %d tracked sessions, uptime %.1fs\n",
		h.TrackedSessions, h.UptimeSeconds)
	return 0
}
