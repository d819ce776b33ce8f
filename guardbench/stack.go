package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"inaudible/internal/cluster"
	"inaudible/internal/core"
	"inaudible/internal/defense"
	"inaudible/internal/experiment"
	"inaudible/internal/journal"
	"inaudible/internal/stream"
	"inaudible/internal/telemetry"
	"inaudible/internal/trace"
)

// trainSeed fixes the detector: it is part of the system under test,
// not of the workload, so every seed runs against the same detector.
const trainSeed = 1

// trainDetector fits the paper's per-feature threshold rule on the
// Quick corpus, the way guardd does with -detector threshold -quick.
// It also returns the training vectors, pinned as the drift reference.
func trainDetector() (defense.Detector, [][]float64, error) {
	sc := core.DefaultScenario()
	sc.Seed = trainSeed
	cfg := experiment.QuickCorpusConfig(experiment.DefaultCorpusConfig(sc))
	cfg.Runner = experiment.NewRunner(0)
	det, samples, err := experiment.TrainDetectorWithSamples("threshold", cfg, trainSeed)
	if err != nil {
		return nil, nil, fmt.Errorf("training detector: %w", err)
	}
	vecs := make([][]float64, len(samples))
	for i, s := range samples {
		vecs[i] = s.X
	}
	return det, vecs, nil
}

// stack is the serving stack one workload drives, all in this process:
// one guard node, or a router in front of two backend nodes.
type stack struct {
	addr     string           // where clients connect
	direct   []string         // routed: the backends' own client listeners
	servers  []*stream.Server // one per node
	journals []*journal.Journal
	router   *cluster.Router
	backends []*cluster.Backend
	lns      []net.Listener // node and backend listeners
	tmp      string         // journal directories, removed by close
	wg       sync.WaitGroup // accept loops
}

// startStack builds and starts the stack for workload. Node options
// follow guardd's defaults: the flight recorder keeps 64 exemplars
// with a 500 ms SLO, drift is tracked against the training vectors,
// admission waits for one of GOMAXPROCS slots. duty turns the cascade
// on; routed puts a journal on each backend under tmpRoot.
func startStack(workload string, det defense.Detector, ref [][]float64, tmpRoot string) (*stack, error) {
	s := &stack{}
	nodes := 1
	if workload == wlRouted {
		nodes = 2
		if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(tmpRoot, "journals-")
		if err != nil {
			return nil, err
		}
		s.tmp = dir
	}
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("n%d", i+1)
		reg := telemetry.NewRegistry()
		drift := trace.NewDriftMonitor(reg)
		drift.SetReference(trace.ReferenceFromVectors(ref))
		cfg := stream.ServerConfig{
			Detector: det,
			Cascade:  workload == wlDuty,
			Metrics:  reg,
			Trace:    trace.NewRecorder(trace.Config{Exemplars: 64, SLO: 500 * time.Millisecond, Node: name}),
			Drift:    drift,
			Node:     name,
		}
		if s.tmp != "" {
			j, err := journal.Open(journal.Config{Dir: fmt.Sprintf("%s/%s", s.tmp, name), Node: name, Metrics: reg})
			if err != nil {
				s.close()
				return nil, err
			}
			s.journals = append(s.journals, j)
			cfg.Journal = j
		}
		srv := stream.NewServer(cfg)
		s.servers = append(s.servers, srv)
		addr, err := s.serve(func(l net.Listener) error { return srv.ServeListener(l) })
		if err != nil {
			s.close()
			return nil, err
		}
		s.direct = append(s.direct, addr)
	}
	if workload != wlRouted {
		s.addr = s.direct[0]
		s.direct = nil
		return s, nil
	}
	var transports []string
	for _, srv := range s.servers {
		b := cluster.NewBackend(srv, 0)
		s.backends = append(s.backends, b)
		addr, err := s.serve(b.Serve)
		if err != nil {
			s.close()
			return nil, err
		}
		transports = append(transports, addr)
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Nodes: transports, Node: "router"})
	if err != nil {
		s.close()
		return nil, err
	}
	s.router = rt
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.addr = l.Addr().String()
	s.wg.Add(1)
	go func() { defer s.wg.Done(); rt.ServeListener(l) }()
	if err := waitHealthy(rt, 10*time.Second); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// serve listens on a loopback port and runs accept on it until close.
func (s *stack) serve(accept func(net.Listener) error) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s.lns = append(s.lns, l)
	s.wg.Add(1)
	go func() { defer s.wg.Done(); accept(l) }()
	return l.Addr().String(), nil
}

// waitHealthy blocks until the router holds a live transport to every
// backend, so no measured session races the initial dials.
func waitHealthy(rt *cluster.Router, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		healthy := 0
		for _, n := range rt.View().Nodes {
			if n.Healthy {
				healthy++
			}
		}
		if healthy == len(rt.View().Nodes) {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("router: backends not reachable")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// journalStats sums the backends' journal counters.
func (s *stack) journalStats() journal.Stats {
	var sum journal.Stats
	for _, j := range s.journals {
		st := j.Stats()
		sum.Records += st.Records
		sum.Dropped += st.Dropped
		sum.Bytes += st.Bytes
	}
	return sum
}

// close stops the stack front to back and waits for every goroutine it
// started; it removes the journal directories last.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if s.router != nil {
		errs = append(errs, s.router.Shutdown(ctx))
	}
	for _, b := range s.backends {
		b.Close()
	}
	for _, l := range s.lns {
		l.Close()
	}
	for _, srv := range s.servers {
		errs = append(errs, srv.Shutdown(ctx))
	}
	s.wg.Wait()
	for _, j := range s.journals {
		j.Close()
	}
	if s.tmp != "" {
		errs = append(errs, os.RemoveAll(s.tmp))
	}
	return errors.Join(errs...)
}
