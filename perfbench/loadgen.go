package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// nodeProc is one running server process.
type nodeProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	url   string
}

// startNodes launches n server processes (this binary in node mode), wires
// them into a ring when n > 1, and returns once every node answers its
// health probe and, in a ring, every node sees every peer healthy.
func startNodes(n int, trace bool, capacity int, hedge bool) ([]*nodeProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	nodes := make([]*nodeProc, 0, n)
	outs := make([]*bufio.Reader, 0, n)
	fail := func(err error) ([]*nodeProc, error) {
		stopNodes(nodes)
		return nil, err
	}
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "node", "-trace="+strconv.FormatBool(trace), "-cache", strconv.Itoa(capacity),
			"-hedge="+strconv.FormatBool(hedge))
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return fail(err)
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return fail(err)
		}
		if err := cmd.Start(); err != nil {
			return fail(err)
		}
		np := &nodeProc{cmd: cmd, stdin: stdin}
		nodes = append(nodes, np)
		out := bufio.NewReader(stdout)
		outs = append(outs, out)
		line, err := out.ReadString('\n')
		if err != nil {
			return fail(fmt.Errorf("node %d: no address: %w", i, err))
		}
		np.url = strings.TrimSpace(line)
	}
	for i, np := range nodes {
		var cfg nodeConfig
		if n > 1 {
			for j, other := range nodes {
				if j != i {
					cfg.Peers = append(cfg.Peers, other.url)
				}
			}
		}
		b, _ := json.Marshal(cfg)
		if _, err := np.stdin.Write(append(b, '\n')); err != nil {
			return fail(err)
		}
	}
	for i, out := range outs {
		if line, err := out.ReadString('\n'); err != nil || strings.TrimSpace(line) != "ready" {
			return fail(fmt.Errorf("node %d did not start: %q %v", i, line, err))
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, np := range nodes {
		for {
			if healthy(np, n-1) {
				break
			}
			if time.Now().After(deadline) {
				return fail(fmt.Errorf("node %s never became healthy", np.url))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nodes, nil
}

// healthy reports whether a node answers its health probe and, in a ring,
// reports all its peers healthy.
func healthy(np *nodeProc, peers int) bool {
	resp, err := http.Get(np.url + "/v1/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	if peers == 0 {
		return true
	}
	snap, err := np.snap()
	if err != nil || snap.Stats.Cluster == nil || len(snap.Stats.Cluster.Peers) != peers {
		return false
	}
	for _, p := range snap.Stats.Cluster.Peers {
		if !p.Healthy {
			return false
		}
	}
	return true
}

// stopNodes closes each node's stdin, which drains and stops it, and waits
// for every process to exit.
func stopNodes(nodes []*nodeProc) {
	for _, np := range nodes {
		np.stdin.Close()
	}
	for _, np := range nodes {
		done := make(chan struct{})
		go func() {
			np.cmd.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			np.cmd.Process.Kill()
			<-done
		}
	}
}

func (np *nodeProc) getJSON(path string, v any) error {
	resp, err := http.Get(np.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (np *nodeProc) snap() (snapshot, error) {
	var s snapshot
	err := np.getJSON("/perfbench/snap", &s)
	return s, err
}

func (np *nodeProc) spans() ([]span, error) {
	var s []span
	err := np.getJSON("/perfbench/spans", &s)
	return s, err
}

// result is one timed request. Times are ns since the phase started, on
// the load generator's monotonic clock.
type result struct {
	req      int
	intended int64 // due time (open loop); the send time in a closed loop
	sent     int64
	done     int64 // response body fully read
	status   int
	body     []byte
	err      error
}

func (r result) latency() int64 { return r.done - r.intended }

// newClient returns a client that holds at most one connection per node.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// prepared is a request rendered to the bytes the wire carries.
type prepared struct {
	url  string
	body []byte
}

func prepare(w *workload, nodes []*nodeProc, reqs []request) []prepared {
	out := make([]prepared, len(reqs))
	for i, r := range reqs {
		first := w.items[r.Items[0]]
		path := "/v1/query"
		body := first.Env
		if r.Batch {
			path = "/v1/batch"
			parts := make([][]byte, len(r.Items))
			for k, it := range r.Items {
				parts[k] = w.items[it].Env
			}
			body = append(append([]byte{'['}, bytes.Join(parts, []byte{','})...), ']')
		}
		out[i] = prepared{url: nodes[r.Node%len(nodes)].url + path + "?backend=" + first.Backend, body: body}
	}
	return out
}

// do sends one prepared request, tagged with a request ID for the traced
// run, and reads the whole response.
func do(c *http.Client, p prepared, id uint64) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, p.url, bytes.NewReader(p.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// arrivals draws a Poisson arrival schedule at rate per second over d:
// offsets in ns from the phase start.
func arrivals(seed uint64, rate float64, d time.Duration) []int64 {
	r := rand.New(rand.NewPCG(seed, 0x5bd1e995))
	var out []int64
	t := 0.0
	for {
		t += r.ExpFloat64() / rate * 1e9
		if t >= float64(d) {
			return out
		}
		out = append(out, int64(t))
	}
}

// openLoop sends p[i] at start+at[i] over one connection per node, one
// request in flight (nproc is 1; see run.sh). A request due while the
// previous one is still out is sent the moment it returns, and its latency
// runs from its due time, so a stall delays everything due behind it.
// Sending from the goroutine that keeps the schedule leaves the one CPU no
// hand-off between a scheduler and a sender to arbitrate. idBase offsets
// the request IDs.
func openLoop(p []prepared, at []int64, idBase uint64) []result {
	defer pauseGC()()
	res := make([]result, len(at))
	cl := newClient()
	defer cl.CloseIdleConnections()
	// The thread sleeps in nanosleep: the runtime's timers wake about a
	// millisecond late on Linux, which would add a millisecond of generator
	// lateness to every sub-millisecond answer.
	start := time.Now()
	for i, due := range at {
		if d := time.Duration(due) - time.Since(start); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil)
		}
		r := &res[i]
		r.req, r.intended = i, due
		r.sent = int64(time.Since(start))
		r.status, r.body, r.err = do(cl, p[i], idBase+uint64(i))
		r.done = int64(time.Since(start))
	}
	return res
}

// pauseGC collects and then turns off the load generator's garbage
// collector until the returned function restores it. A timed phase
// allocates tens of MB at most; a collection during it would take the
// one CPU from the sender and the server for milliseconds, which is the
// benchmark's noise, not the system's.
func pauseGC() (restore func()) {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

// closedLoop sends p in order, back to back, for d, and returns the
// completed requests.
func closedLoop(p []prepared, d time.Duration, idBase uint64) []result {
	defer pauseGC()()
	var res []result
	cl := newClient()
	defer cl.CloseIdleConnections()
	start := time.Now()
	for i := 0; i < len(p) && time.Since(start) < d; i++ {
		r := result{req: i, intended: int64(time.Since(start))}
		r.sent = r.intended
		r.status, r.body, r.err = do(cl, p[i], idBase+uint64(i))
		r.done = int64(time.Since(start))
		res = append(res, r)
	}
	return res
}

// warmUp sends each request once, in order, on one connection, and fails
// on any non-200: set-up must leave every answer in place.
func warmUp(p []prepared) error {
	cl := newClient()
	defer cl.CloseIdleConnections()
	for i, q := range p {
		st, body, err := do(cl, q, 0)
		if err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
		if st != http.StatusOK {
			return fmt.Errorf("warm-up request %d: status %d: %s", i, st, body)
		}
	}
	return nil
}

// cpuSelf is this process's user+system CPU time.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// monitor polls the nodes' waiting gauge until ctx ends and returns the
// largest value seen.
func monitor(ctx context.Context, nodes []*nodeProc) func() int64 {
	var maxWaiting atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			for _, np := range nodes {
				if s, err := np.snap(); err == nil && s.Stats.Waiting > maxWaiting.Load() {
					maxWaiting.Store(s.Stats.Waiting)
				}
			}
		}
	}()
	return func() int64 {
		<-done
		return maxWaiting.Load()
	}
}
