// Command wearlock-gateway fronts a sharded wearlockd cluster. It
// consistent-hashes the device space onto the configured shard daemons,
// proxies the single-daemon client API unchanged (loadgen and clients
// point at the gateway exactly as they would at one wearlockd), and
// relays backpressure verbatim — a shard's 429/503 with its Retry-After
// header reaches the client untouched.
//
// Usage:
//
//	wearlock-gateway -shard s0=http://127.0.0.1:9101 \
//	                 -shard s1=http://127.0.0.1:9102 \
//	                 [-standby s0=http://127.0.0.1:9201]
//	                 [-addr :8547] [-devices 64] [-replicas 128]
//	                 [-heartbeat 2s] [-heartbeat-misses 3]
//	                 [-addr-file /run/gateway.addr]
//
// Each -standby names a warm wearlockd started with -follow replicating
// that shard's primary. When the primary misses -heartbeat-misses
// consecutive probes, the gateway fences the topology epoch, promotes
// the standby via /replica/v1/promote, and re-points the shard's
// routing at it — clients keep using the same gateway URL throughout.
//
// Each -shard flag names one wearlockd started with a matching
// -shard-id. On startup the gateway registers the topology with every
// shard (retrying until all are reachable and recovered), then serves:
//
//	POST /v1/unlock              proxied to the owning shard
//	GET  /v1/sessions/{id}       routed by the "<shard>." ID prefix
//	GET  /healthz, /readyz       cluster-wide fan-in (ready ⇔ all shards ready)
//	GET  /metrics                gateway metrics + per-shard aggregation
//	GET  /cluster/v1/topology    epoch, membership, device assignment
//	POST /cluster/v1/shards      join a new shard live (snapshot-shipping handoff)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wearlock/internal/cluster"
)

// shardFlags collects repeated -shard name=url flags.
type shardFlags []cluster.ShardConfig

func (s *shardFlags) String() string {
	var parts []string
	for _, sc := range *s {
		parts = append(parts, sc.Name+"="+sc.BaseURL)
	}
	return strings.Join(parts, ",")
}

func (s *shardFlags) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("want name=url, got %q", v)
	}
	*s = append(*s, cluster.ShardConfig{Name: name, BaseURL: strings.TrimSuffix(url, "/")})
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var shards shardFlags
	var (
		addr      = flag.String("addr", ":8547", "listen address")
		devices   = flag.Int("devices", 64, "total cluster device space (every shard must be started with at least this many -devices)")
		replicas  = flag.Int("replicas", 0, "consistent-hash vnodes per shard (0 = default)")
		heartbeat = flag.Duration("heartbeat", 2*time.Second, "shard heartbeat interval")
		regWait   = flag.Duration("register-wait", 60*time.Second, "how long to retry shard registration before giving up")
		addrFile  = flag.String("addr-file", "", "write the bound listen address to this file (useful with -addr :0)")
	)
	var standbys shardFlags
	flag.Var(&shards, "shard", "shard as name=url (repeatable; name must match the daemon's -shard-id)")
	flag.Var(&standbys, "standby", "warm standby as name=url (repeatable; name is the shard it protects, url a wearlockd started with -follow). On heartbeat loss the gateway fences the epoch, promotes the standby, and re-points the shard's routing at it.")
	misses := flag.Int("heartbeat-misses", 0, "consecutive heartbeat misses before a shard is unhealthy (and failed over, with -standby); 0 = default 3")
	flag.Parse()

	logger := log.New(os.Stderr, "wearlock-gateway: ", log.LstdFlags)
	if len(shards) == 0 {
		logger.Print("at least one -shard name=url is required")
		return 1
	}
	standbyMap := make(map[string]string, len(standbys))
	for _, sc := range standbys {
		standbyMap[sc.Name] = sc.BaseURL
	}

	gw, err := cluster.NewGateway(cluster.GatewayConfig{
		Shards:          shards,
		TotalDevices:    *devices,
		Replicas:        *replicas,
		HeartbeatEvery:  *heartbeat,
		HeartbeatMisses: *misses,
		Standbys:        standbyMap,
	})
	if err != nil {
		logger.Print(err)
		return 1
	}

	// Register the topology with every shard, retrying while daemons come
	// up or replay their WALs. Registration is all-or-nothing per attempt:
	// a shard that answers must also match its configured identity.
	regCtx, regCancel := context.WithTimeout(context.Background(), *regWait)
	defer regCancel()
	for {
		err = gw.Register(regCtx)
		if err == nil {
			break
		}
		logger.Printf("registration: %v (retrying)", err)
		select {
		case <-regCtx.Done():
			logger.Printf("registration did not converge within %s: %v", *regWait, err)
			return 1
		case <-time.After(500 * time.Millisecond):
		}
	}
	top := gw.Topology()
	logger.Printf("registered %d shards, epoch %d, %d devices", len(shards), top.Epoch, top.Devices)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Print(err)
		return 1
	}
	fmt.Printf("listening %s\n", ln.Addr())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			logger.Print(err)
			return 1
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	stopHB := gw.StartHeartbeats()
	defer stopHB()

	server := &http.Server{Handler: gw.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- server.Serve(ln) }()

	select {
	case err := <-errCh:
		logger.Printf("serve: %v", err)
		return 1
	case <-ctx.Done():
	}
	stop()
	logger.Print("signal received, shutting down")
	grace, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := server.Shutdown(grace); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("http shutdown: %v", err)
	}
	<-errCh
	gw.Close()
	return 0
}
