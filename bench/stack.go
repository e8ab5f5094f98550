package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"wearlock/internal/cluster"
	"wearlock/internal/service"
)

// server is one loopback http.Server and the goroutine serving it.
type server struct {
	srv  *http.Server
	done chan struct{}
	url  string
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the server and waits for its goroutine; nil-safe.
func (s *server) close() {
	if s == nil {
		return
	}
	_ = s.srv.Close() // the listener closing is the point; no data to flush
	<-s.done
}

// stack is one booted system under test: a standalone daemon, or a
// gateway in front of a durable primary with a warm standby.
type stack struct {
	base       string // what the clients call
	primary    *service.Service
	primarySrv *server
	standby    *service.Service
	standbySrv *server
	gatewaySrv *server
	gwClient   *http.Client
	proxy      *proxyTimer
	stopBeats  func()
}

// boot builds the workload's stack through the public constructors, each
// behind its own loopback server, and returns once the front door's
// /readyz answers 200, with the time that took (the set-up time). dir
// holds the durable state directories.
func boot(w workload, seed int64, dir string, traced bool, client *http.Client) (*stack, time.Duration, error) {
	start := time.Now()
	st := &stack{}
	err := st.build(w, seed, dir, traced)
	if err == nil {
		err = waitReady(client, st.base)
	}
	if err != nil {
		st.shutdown()
		return nil, 0, err
	}
	return st, time.Since(start), nil
}

func (st *stack) build(w workload, seed int64, dir string, traced bool) error {
	cfg := service.DefaultConfig()
	cfg.Seed = seed
	if w.durable {
		cfg.StateDir = filepath.Join(dir, "primary")
	}
	if w.replicated {
		cfg.ShardID = "s0"
	}
	var err error
	if st.primary, st.primarySrv, err = daemon(cfg); err != nil {
		return fmt.Errorf("primary: %w", err)
	}
	st.base = st.primarySrv.url
	// Wait in process for the primary's recovery: a follower's attach is
	// refused until it ends, and the /readyz polls that end the set-up
	// would otherwise round its time up to their interval.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := st.primary.WaitReady(ctx); err != nil {
		return fmt.Errorf("primary: %w", err)
	}
	if w.replicated {
		return st.addStandbyAndGateway(ctx, cfg, filepath.Join(dir, "standby"), traced)
	}
	return nil
}

// addStandbyAndGateway attaches a warm standby to the primary and puts a
// heartbeating gateway in front of both.
func (st *stack) addStandbyAndGateway(ctx context.Context, cfg service.Config, dir string, traced bool) error {
	scfg := cfg
	scfg.StateDir, scfg.Follow = dir, true
	var err error
	if st.standby, st.standbySrv, err = daemon(scfg); err != nil {
		return fmt.Errorf("standby: %w", err)
	}
	if err := st.standby.FollowPrimary(ctx, st.primarySrv.url, st.standbySrv.url); err != nil {
		return fmt.Errorf("standby: %w", err)
	}
	for !st.primary.ReplicaAttached() {
		if ctx.Err() != nil {
			return fmt.Errorf("standby never attached: %+v", st.primary.ReplicaStatus())
		}
		time.Sleep(time.Millisecond)
	}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = transport
	if traced {
		st.proxy = newProxyTimer(transport)
		rt = st.proxy
	}
	st.gwClient = &http.Client{Transport: rt, Timeout: 30 * time.Second}
	gw, err := cluster.NewGateway(cluster.GatewayConfig{
		Shards:       []cluster.ShardConfig{{Name: cfg.ShardID, BaseURL: st.primarySrv.url}},
		TotalDevices: cfg.Devices,
		Standbys:     map[string]string{cfg.ShardID: st.standbySrv.url},
		Client:       st.gwClient,
	})
	if err != nil {
		return err
	}
	if err := gw.Register(ctx); err != nil {
		return err
	}
	if st.gatewaySrv, err = serve(gw.Handler()); err != nil {
		return err
	}
	st.stopBeats = gw.StartHeartbeats()
	st.base = st.gatewaySrv.url
	return nil
}

// daemon constructs one service and serves its HTTP API.
func daemon(cfg service.Config) (*service.Service, *server, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	srv, err := serve(svc.Handler())
	if err != nil {
		svc.Kill()
		return nil, nil, err
	}
	return svc, srv, nil
}

// waitReady polls url/readyz until it answers 200.
func waitReady(client *http.Client, url string) error {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := client.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/readyz never answered 200 (last: %v)", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// scrape reads the front door's /metrics (the gateway's aggregate, for a
// cluster) and, with a standby, the standby's own.
func (st *stack) scrape(client *http.Client) (front, standby exposition, err error) {
	if front, err = scrape(client, st.base+"/metrics"); err != nil {
		return
	}
	if st.standbySrv != nil {
		standby, err = scrape(client, st.standbySrv.url+"/metrics")
	}
	return
}

// shutdown tears the stack down gracefully; safe on a partly built stack.
func (st *stack) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if st.stopBeats != nil {
		st.stopBeats()
	}
	st.gatewaySrv.close()
	if st.gwClient != nil {
		st.gwClient.CloseIdleConnections()
	}
	// The primary goes first: its drain stops the shipper that still talks
	// to the standby's server.
	st.primarySrv.close()
	if st.primary != nil {
		_ = st.primary.Shutdown(ctx) // a failed drain leaves nothing the benchmark reads
	}
	st.standbySrv.close()
	if st.standby != nil {
		_ = st.standby.Shutdown(ctx)
	}
}

// kill abandons a standalone daemon the way a crash would: no drain, no
// sealed WAL.
func (st *stack) kill() {
	st.primarySrv.close()
	st.primary.Kill()
}
