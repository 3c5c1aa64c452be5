package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"time"

	"feasim/internal/core"
	"feasim/internal/peer"
	"feasim/internal/serve"
	"feasim/internal/sim"
	"feasim/internal/solve"
)

// serverOptions are the solver options every node and the oracle share: a
// small batch-means protocol keeps one exact-sim answer near a millisecond.
func serverOptions() solve.Options {
	return solve.Options{Protocol: sim.Protocol{Batches: 5, BatchSize: 100, Level: 0.90}}
}

// nodeConfig is the line the load generator writes to a node's stdin once
// every node of the run has printed its address.
type nodeConfig struct {
	Peers []string `json:"peers"`
}

// snapshot is a node's GET /perfbench/snap reply: the service counters and
// the kernel memo counters of the node process, plus its resource use.
type snapshot struct {
	Stats     serve.Stats `json:"stats"`
	TablesHit uint64      `json:"tables_hit"`
	TablesMis uint64      `json:"tables_miss"`
	PBHit     uint64      `json:"pb_hit"`
	PBMis     uint64      `json:"pb_miss"`
	CPUNS     int64       `json:"cpu_ns"`
	MaxRSSKB  int64       `json:"max_rss_kb"`
}

// selfUsage returns this process's CPU time and peak resident set. The
// peak is VmHWM, not getrusage's ru_maxrss: a child started by a Go parent
// inherits the parent's high-water mark in ru_maxrss (the parent's memory
// is shared until exec), so a node's ru_maxrss reports the load generator.
func selfUsage() (cpuNS, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return ru.Utime.Nano() + ru.Stime.Nano(), ru.Maxrss
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fmt.Sscan(rest, &maxRSSKB)
		}
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), maxRSSKB
}

// runNode is the server process: one feasim answer node built from the
// public serve/peer/solve entry points, with the span wrappers installed
// when -trace is set. It prints its URL, reads its peer list from stdin,
// prints "ready", and serves until stdin closes.
func runNode(args []string) error {
	fs := flag.NewFlagSet("node", flag.ContinueOnError)
	trace := fs.Bool("trace", false, "record layer spans")
	capacity := fs.Int("cache", 0, "answer-cache capacity (0: server default)")
	hedge := fs.Bool("hedge", true, "hedge slow forwards (the peer default); false disables hedging")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	self := "http://" + ln.Addr().String()
	fmt.Println(self)
	in := bufio.NewReader(os.Stdin)
	line, err := in.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("node: reading config: %w", err)
	}
	var cfg nodeConfig
	if err := json.Unmarshal(line, &cfg); err != nil {
		return fmt.Errorf("node: bad config: %w", err)
	}

	var rec *recorder
	if *trace {
		rec = newRecorder()
	}
	opts := serverOptions()
	solvers := map[string]solve.Solver{}
	for _, name := range solve.Backends() {
		sv, err := solve.NewSolver(name, opts)
		if err != nil {
			return err
		}
		if rec != nil {
			sv = tracedSolver{Solver: sv, rec: rec}
		}
		solvers[name] = sv
	}
	scfg := serve.Config{Solvers: solvers, Options: opts, CacheCapacity: *capacity}
	if len(cfg.Peers) > 0 {
		// The production defaults: peers start healthy, so the ring converges
		// without waiting for a probe round.
		pcfg := peer.Config{Self: self, Peers: cfg.Peers}
		if !*hedge {
			pcfg.HedgeDelay = -1
		}
		if rec != nil {
			pcfg.Client = &http.Client{Transport: tracedTransport{base: http.DefaultTransport, rec: rec}}
		}
		cl, err := peer.New(pcfg)
		if err != nil {
			return err
		}
		scfg.Cluster = cl
	}
	srv, err := serve.New(scfg)
	if err != nil {
		return err
	}
	handler := srv.Handler()
	if rec != nil {
		handler = rec.middleware(func(r *http.Request) string {
			switch r.URL.Path {
			case "/v1/query":
				return "serve.query"
			case "/v1/batch":
				return "serve.batch"
			}
			return ""
		}, handler)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/", handler)
	mux.HandleFunc("GET /perfbench/snap", func(w http.ResponseWriter, _ *http.Request) {
		th, tm := core.TablesCacheStats()
		ph, pm := core.PoissonBinomialCacheStats()
		cpu, rss := selfUsage()
		json.NewEncoder(w).Encode(snapshot{Stats: srv.Stats(), TablesHit: th, TablesMis: tm,
			PBHit: ph, PBMis: pm, CPUNS: cpu, MaxRSSKB: rss})
	})
	mux.HandleFunc("GET /perfbench/spans", func(w http.ResponseWriter, _ *http.Request) {
		var spans []span
		if rec != nil {
			spans = rec.take()
		}
		json.NewEncoder(w).Encode(spans)
	})
	hs := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	fmt.Println("ready")

	// The load generator closes stdin to stop the node.
	io.Copy(io.Discard, in)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = hs.Shutdown(ctx)
	if serr := srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}
