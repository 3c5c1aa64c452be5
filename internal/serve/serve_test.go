package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"feasim/internal/serve"
	"feasim/internal/sim"
	"feasim/internal/solve"
)

// gatedSolver counts Answer executions, tracks the concurrency high-water
// mark, and can gate execution on a channel so tests control overlap.
type gatedSolver struct {
	name    string
	calls   atomic.Int64
	active  atomic.Int64
	highs   atomic.Int64
	release chan struct{} // nil: answer immediately
}

func (g *gatedSolver) Name() string           { return g.name }
func (g *gatedSolver) Capabilities() []string { return solve.QueryKinds() }

func (g *gatedSolver) Answer(ctx context.Context, q solve.Query) (solve.Answer, error) {
	g.calls.Add(1)
	cur := g.active.Add(1)
	defer g.active.Add(-1)
	for {
		high := g.highs.Load()
		if cur <= high || g.highs.CompareAndSwap(high, cur) {
			break
		}
	}
	if g.release != nil {
		select {
		case <-g.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return solve.ThresholdAnswer{Backend: g.name, MinRatio: 7}, nil
}

func (g *gatedSolver) Solve(ctx context.Context, s solve.Scenario) (solve.Report, error) {
	a, err := g.Answer(ctx, solve.ReportQuery{Scenario: s})
	if err != nil {
		return solve.Report{}, err
	}
	return a.(solve.ReportAnswer).Report, nil
}

// newTestServer builds a Server plus an httptest front-end.
func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and returns the status plus decoded payload.
func post(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var payload map[string]any
	if err := json.Unmarshal(data, &payload); err != nil {
		t.Fatalf("status %d: non-JSON response %q: %v", resp.StatusCode, data, err)
	}
	return resp.StatusCode, payload
}

const thresholdEnvelope = `{"kind": "threshold", "w": 10, "o": 10, "util": 0.1, "target_eff": 0.8, "seed": 1}`

// TestQueryEndpointAnswersEveryKind: the analytic backend answers all five
// kinds over HTTP with the documented response shape.
func TestQueryEndpointAnswersEveryKind(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	envelopes := map[string]string{
		solve.KindReport:       `{"kind": "report", "scenario": {"j": 1000, "w": 10, "o": 10, "util": 0.05}}`,
		solve.KindThreshold:    thresholdEnvelope,
		solve.KindPartition:    `{"kind": "partition", "j": 2000, "o": 10, "util": 0.05, "target_eff": 0.8, "max_w": 200}`,
		solve.KindDistribution: `{"kind": "distribution", "scenario": {"j": 1000, "w": 10, "o": 10, "util": 0.1}, "deadlines": [150]}`,
		solve.KindScaled:       `{"kind": "scaled", "t": 100, "o": 10, "util": 0.1, "ws": [1, 10]}`,
	}
	for kind, env := range envelopes {
		status, payload := post(t, ts.URL+"/v1/query", env)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %v", kind, status, payload)
		}
		if payload["kind"] != kind || payload["backend"] != solve.BackendAnalytic {
			t.Errorf("%s: kind/backend = %v/%v", kind, payload["kind"], payload["backend"])
		}
		if payload["answer"] == nil {
			t.Errorf("%s: missing answer", kind)
		}
	}
}

// TestQueryCoalescing is the acceptance check: 8 concurrent identical
// queries must execute the solver exactly once, the waiters coalescing onto
// the leader's flight, and a follow-up request must be a cache hit.
func TestQueryCoalescing(t *testing.T) {
	g := &gatedSolver{name: "gated", release: make(chan struct{})}
	s, ts := newTestServer(t, serve.Config{
		Solvers:        map[string]solve.Solver{"gated": g},
		DefaultBackend: "gated",
	})

	const n = 8
	var wg sync.WaitGroup
	statuses := make([]int, n)
	payloads := make([]map[string]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], payloads[i] = post(t, ts.URL+"/v1/query", thresholdEnvelope)
		}(i)
	}
	// Release the solver only once all 8 requests are accounted for: one
	// leading (miss), seven waiting (coalesced).
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats().Cache
		if st.Misses == 1 && st.Coalesced == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coalescing never converged: %+v", st)
		}
		runtime.Gosched()
	}
	close(g.release)
	wg.Wait()

	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %v", i, statuses[i], payloads[i])
		}
		ans := payloads[i]["answer"].(map[string]any)
		if ans["min_ratio"] != float64(7) {
			t.Errorf("request %d: answer %v", i, ans)
		}
	}
	if got := g.calls.Load(); got != 1 {
		t.Errorf("solver executed %d times under %d concurrent identical queries, want exactly 1", got, n)
	}

	// The answer is now resident: one more request is a cache hit and the
	// counters must line up.
	status, payload := post(t, ts.URL+"/v1/query", thresholdEnvelope)
	if status != http.StatusOK || payload["cached"] != true {
		t.Errorf("follow-up: status %d cached %v", status, payload["cached"])
	}
	if got := g.calls.Load(); got != 1 {
		t.Errorf("cache hit executed the solver: %d calls", got)
	}
	st := s.Stats()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.Coalesced != n-1 {
		t.Errorf("cache stats %+v, want 1 hit / 1 miss / %d coalesced", st.Cache, n-1)
	}
	if st.Queries != n+1 || st.PerKind[solve.KindThreshold] != n+1 {
		t.Errorf("traffic stats %+v, want %d threshold queries", st, n+1)
	}
}

// TestQueryErrorTaxonomy: malformed 400, unknown backend 400, unsupported
// kind 501, domain failure 422, wrong method 405.
func TestQueryErrorTaxonomy(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})

	status, payload := post(t, ts.URL+"/v1/query", `{"kind": `)
	if status != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", status)
	}
	if msg, _ := payload["error"].(string); !strings.Contains(msg, "bad query envelope") {
		t.Errorf("malformed body: error %q should carry the decode error", msg)
	}

	status, payload = post(t, ts.URL+"/v1/query", `{"kind": "threshold", "w": 10, "o": 10, "util": 0.1, "target_eff": 0.8, "wiggle": 1}`)
	if status != http.StatusBadRequest {
		t.Errorf("unknown field: status %d (%v)", status, payload)
	}

	status, _ = post(t, ts.URL+"/v1/query?backend=csim", thresholdEnvelope)
	if status != http.StatusBadRequest {
		t.Errorf("unknown backend: status %d", status)
	}

	status, payload = post(t, ts.URL+"/v1/query?backend=des", `{"kind": "scaled", "t": 100, "o": 10, "util": 0.1, "ws": [1]}`)
	if status != http.StatusNotImplemented {
		t.Errorf("unsupported kind: status %d", status)
	}
	if msg, _ := payload["error"].(string); !strings.Contains(msg, "does not answer") {
		t.Errorf("unsupported kind: error %q should name the refusal", msg)
	}

	// Non-integral T = J/W on the exact simulator: a valid envelope the
	// backend cannot answer numerically.
	status, _ = post(t, ts.URL+"/v1/query?backend=exact", `{"kind": "report", "scenario": {"j": 1000, "w": 7, "o": 10, "util": 0.05}}`)
	if status != http.StatusUnprocessableEntity {
		t.Errorf("domain failure: status %d", status)
	}

	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/query: status %d", resp.StatusCode)
	}
}

// unreachableTargetEnvelopes are reports whose target_eff no task ratio
// reaches, one homogeneous and one fleet: the verdict is "not feasible"
// with no prescription.
var unreachableTargetEnvelopes = []string{
	`{"kind":"report","scenario":{"j":1000,"w":10,"o":10,"util":0.5,"target_eff":1}}`,
	`{"kind":"report","scenario":{"j":6450,"o":10,"target_eff":0.8,"stations":[{"p":0.0408,"count":4},{"util":0.0215,"count":9},{"p":0.015,"speed":2,"count":2}]}}`,
}

// TestQueryUnreachableTarget: an unreachable target answers 200 with
// feasible: false and no min_ratio / min_job_demand (its +Inf job demand
// used to fail the JSON encode with a 500).
func TestQueryUnreachableTarget(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	for _, env := range unreachableTargetEnvelopes {
		status, payload := post(t, ts.URL+"/v1/query", env)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %v", env, status, payload)
		}
		answer, _ := payload["answer"].(map[string]any)
		report, _ := answer["report"].(map[string]any)
		if report["feasible"] != false {
			t.Errorf("%s: feasible = %v, want false", env, report["feasible"])
		}
		for _, key := range []string{"min_ratio", "min_job_demand"} {
			if v, ok := report[key]; ok {
				t.Errorf("%s: %s = %v, want it omitted", env, key, v)
			}
		}
	}
}

// TestQueryDeadline: a solve that outlives the per-request timeout is 504.
func TestQueryDeadline(t *testing.T) {
	g := &gatedSolver{name: "gated", release: make(chan struct{})} // never released
	_, ts := newTestServer(t, serve.Config{
		Solvers:        map[string]solve.Solver{"gated": g},
		DefaultBackend: "gated",
		RequestTimeout: 50 * time.Millisecond,
	})
	status, _ := post(t, ts.URL+"/v1/query", thresholdEnvelope)
	if status != http.StatusGatewayTimeout {
		t.Errorf("deadline: status %d, want 504", status)
	}
}

// TestConcurrencyLimiter: MaxInFlight 1 must serialize distinct queries.
func TestConcurrencyLimiter(t *testing.T) {
	g := &gatedSolver{name: "gated"}
	_, ts := newTestServer(t, serve.Config{
		Solvers:        map[string]solve.Solver{"gated": g},
		DefaultBackend: "gated",
		MaxInFlight:    1,
	})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			env := fmt.Sprintf(`{"kind": "threshold", "w": 10, "o": 10, "util": 0.1, "target_eff": 0.8, "seed": %d}`, i+1)
			if status, payload := post(t, ts.URL+"/v1/query", env); status != http.StatusOK {
				t.Errorf("request %d: status %d: %v", i, status, payload)
			}
		}(i)
	}
	wg.Wait()
	if got := g.highs.Load(); got != 1 {
		t.Errorf("solver concurrency high-water %d under MaxInFlight=1", got)
	}
	if got := g.calls.Load(); got != 6 {
		t.Errorf("distinct queries must not coalesce: %d calls, want 6", got)
	}
}

// TestBatchMatchesQuery is the batch golden: every kind's envelope answered
// through /v1/batch must carry byte-for-byte the answer /v1/query gives for
// the same envelope (modulo wall-clock timings), in request order.
func TestBatchMatchesQuery(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	envelopes := []string{
		`{"kind": "report", "scenario": {"j": 1000, "w": 10, "o": 10, "util": 0.05}}`,
		thresholdEnvelope,
		`{"kind": "partition", "j": 2000, "o": 10, "util": 0.05, "target_eff": 0.8, "max_w": 200}`,
		`{"kind": "distribution", "scenario": {"j": 1000, "w": 10, "o": 10, "util": 0.1}, "deadlines": [150]}`,
		`{"kind": "scaled", "t": 100, "o": 10, "util": 0.1, "ws": [1, 10]}`,
	}
	wantKinds := []string{solve.KindReport, solve.KindThreshold, solve.KindPartition,
		solve.KindDistribution, solve.KindScaled}

	status, payload := post(t, ts.URL+"/v1/batch", "["+strings.Join(envelopes, ",")+"]")
	if status != http.StatusOK {
		t.Fatalf("batch: status %d: %v", status, payload)
	}
	if payload["backend"] != solve.BackendAnalytic || payload["ok"] != float64(len(envelopes)) || payload["failed"] != float64(0) {
		t.Errorf("batch summary %v", payload)
	}
	items := payload["items"].([]any)
	if len(items) != len(envelopes) {
		t.Fatalf("got %d items for %d envelopes", len(items), len(envelopes))
	}
	// strip drops the volatile fields (wall-clock timings) recursively.
	var strip func(v any) any
	strip = func(v any) any {
		m, ok := v.(map[string]any)
		if !ok {
			return v
		}
		out := make(map[string]any, len(m))
		for k, val := range m {
			if k == "elapsed_ns" {
				continue
			}
			out[k] = strip(val)
		}
		return out
	}
	for i, raw := range items {
		item := raw.(map[string]any)
		if item["status"] != float64(http.StatusOK) || item["kind"] != wantKinds[i] {
			t.Errorf("item %d: status/kind = %v/%v, want 200/%s", i, item["status"], item["kind"], wantKinds[i])
			continue
		}
		qstatus, qpayload := post(t, ts.URL+"/v1/query", envelopes[i])
		if qstatus != http.StatusOK {
			t.Fatalf("query %d: status %d", i, qstatus)
		}
		got := strip(item["answer"])
		want := strip(qpayload["answer"])
		if !reflect.DeepEqual(got, want) {
			t.Errorf("item %d (%s): batch answer diverges from /v1/query:\n batch: %v\n query: %v",
				i, wantKinds[i], got, want)
		}
	}
}

// TestBatchPartialFailure: one bad envelope inside a batch fails alone with
// its own 400 (or taxonomy status), leaving its neighbors answered.
func TestBatchPartialFailure(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{})
	batch := `[` + thresholdEnvelope + `,
		{"kind": "bogus"},
		{"kind": "scaled", "t": 100, "o": 10, "util": 0.1, "ws": [1]}]`
	status, payload := post(t, ts.URL+"/v1/batch", batch)
	if status != http.StatusOK {
		t.Fatalf("partial batch must still be 200: %d %v", status, payload)
	}
	if payload["ok"] != float64(2) || payload["failed"] != float64(1) {
		t.Errorf("summary %v, want ok=2 failed=1", payload)
	}
	items := payload["items"].([]any)
	wantStatus := []float64{200, 400, 200}
	for i, raw := range items {
		item := raw.(map[string]any)
		if item["status"] != wantStatus[i] {
			t.Errorf("item %d: status %v, want %v", i, item["status"], wantStatus[i])
		}
		if i == 1 {
			if msg, _ := item["error"].(string); msg == "" {
				t.Error("failed item must carry its error")
			}
			if item["answer"] != nil {
				t.Error("failed item must not carry an answer")
			}
		}
	}
	// A failing item is the caller's business, not a service error.
	if st := s.Stats(); st.Errors != 0 || st.Batches != 1 || st.BatchItems != 2 {
		t.Errorf("stats %+v, want 0 errors / 1 batch / 2 parsed items", st)
	}
}

// TestBatchDeduplicates: identical envelopes inside one batch ride the
// shared answer layer — the backend executes exactly once whether the items
// coalesce in flight or hit the freshly stored answer.
func TestBatchDeduplicates(t *testing.T) {
	g := &gatedSolver{name: "gated"}
	s, ts := newTestServer(t, serve.Config{
		Solvers:        map[string]solve.Solver{"gated": g},
		DefaultBackend: "gated",
	})
	const n = 8
	envs := make([]string, n)
	for i := range envs {
		envs[i] = thresholdEnvelope
	}
	status, payload := post(t, ts.URL+"/v1/batch", "["+strings.Join(envs, ",")+"]")
	if status != http.StatusOK {
		t.Fatalf("batch: status %d: %v", status, payload)
	}
	if payload["ok"] != float64(n) {
		t.Errorf("summary %v, want %d ok", payload, n)
	}
	if got := g.calls.Load(); got != 1 {
		t.Errorf("solver executed %d times for %d identical items, want exactly 1", got, n)
	}
	st := s.Stats()
	if st.Cache.Misses != 1 || st.Cache.Hits+st.Cache.Coalesced != n-1 {
		t.Errorf("cache stats %+v, want 1 miss and %d hits+coalesced", st.Cache, n-1)
	}
	if st.PerKind[solve.KindThreshold] != n {
		t.Errorf("per-kind count %d, want %d", st.PerKind[solve.KindThreshold], n)
	}
}

// TestBatchErrors: the array shell itself must validate — non-array body,
// empty array, oversized array and unknown backend are whole-request 400s.
func TestBatchErrors(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	if status, _ := post(t, ts.URL+"/v1/batch", thresholdEnvelope); status != http.StatusBadRequest {
		t.Errorf("non-array body: status %d", status)
	}
	if status, _ := post(t, ts.URL+"/v1/batch", `[]`); status != http.StatusBadRequest {
		t.Errorf("empty batch: status %d", status)
	}
	big := "[" + strings.Repeat(thresholdEnvelope+",", 1024) + thresholdEnvelope + "]"
	if status, _ := post(t, ts.URL+"/v1/batch", big); status != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d", status)
	}
	if status, _ := post(t, ts.URL+"/v1/batch?backend=csim", "["+thresholdEnvelope+"]"); status != http.StatusBadRequest {
		t.Errorf("unknown backend: status %d", status)
	}
}

// TestSweepEndpoint: a small analytic grid comes back complete and in grid
// order, with dedup visible in the cached count; malformed specs are 400.
func TestSweepEndpoint(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{})
	spec := `{
		"base": {"kind": "threshold", "w": 20, "o": 10, "target_eff": 0.8},
		"util": [0.05, 0.1, 0.1],
		"workers": 1,
		"seed": 4
	}`
	status, payload := post(t, ts.URL+"/v1/sweep", spec)
	if status != http.StatusOK {
		t.Fatalf("sweep: status %d: %v", status, payload)
	}
	if payload["points"] != float64(3) || payload["failed"] != nil && payload["failed"] != float64(0) {
		t.Errorf("sweep summary %v", payload)
	}
	if payload["cached"] != float64(1) {
		t.Errorf("duplicate util grid point should dedup: %v", payload["cached"])
	}
	results := payload["results"].([]any)
	for i, r := range results {
		if idx := r.(map[string]any)["point"].(map[string]any)["index"]; idx != float64(i) {
			t.Errorf("result %d carries index %v: not grid order", i, idx)
		}
	}
	if st := s.Stats(); st.Sweeps != 1 {
		t.Errorf("sweeps counter %d, want 1", st.Sweeps)
	}

	if status, _ := post(t, ts.URL+"/v1/sweep", `{"w": [1]}`); status != http.StatusBadRequest {
		t.Errorf("sweep without base: status %d", status)
	}
	if status, _ := post(t, ts.URL+"/v1/sweep", `{"base": {"kind": "bogus"}}`); status != http.StatusBadRequest {
		t.Errorf("sweep with bad base kind: status %d", status)
	}
}

// TestSweepInheritsServerOptions: a sweep spec that does not configure its
// simulation backends must inherit the server's protocol, so /v1/query and
// /v1/sweep answer one envelope identically.
func TestSweepInheritsServerOptions(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		Options: solve.Options{Protocol: sim.Protocol{Batches: 3, BatchSize: 30, Level: 0.9}},
	})
	spec := `{
		"base": {"kind": "report", "scenario": {"j": 200, "w": 4, "o": 10, "seed": 1}},
		"util": [0.05],
		"backends": ["exact"]
	}`
	status, payload := post(t, ts.URL+"/v1/sweep", spec)
	if status != http.StatusOK {
		t.Fatalf("sweep: status %d: %v", status, payload)
	}
	results := payload["results"].([]any)
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	rep := results[0].(map[string]any)["answer"].(map[string]any)["report"].(map[string]any)
	// 3 batches × 30 samples — the server's protocol, not the paper default
	// (20×1000) the engine would otherwise build.
	if rep["samples"] != float64(90) {
		t.Errorf("sweep probe used %v samples, want the server protocol's 90", rep["samples"])
	}
}

// TestHealthzAndStats: the probes respond and stats carry the documented
// shape.
func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	for _, ep := range []string{"/v1/healthz", "/v1/stats"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", ep, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content type %q", ep, ct)
		}
		if ep == "/v1/stats" {
			var st serve.Stats
			if err := json.Unmarshal(data, &st); err != nil {
				t.Fatalf("stats: %v", err)
			}
			if st.PerKind == nil || st.Cache.Capacity == 0 {
				t.Errorf("stats payload incomplete: %+v", st)
			}
		}
	}
}

// TestGracefulShutdownDrains: Shutdown must wait for an in-flight request
// to complete (and that request must succeed), then refuse new connections.
func TestGracefulShutdownDrains(t *testing.T) {
	g := &gatedSolver{name: "gated", release: make(chan struct{})}
	s, err := serve.New(serve.Config{
		Solvers:        map[string]solve.Solver{"gated": g},
		DefaultBackend: "gated",
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(thresholdEnvelope))
		if err != nil {
			reqDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	deadline := time.Now().Add(10 * time.Second)
	for g.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the solver")
		}
		runtime.Gosched()
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned %v with a request still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(g.release)
	if status := <-reqDone; status != http.StatusOK {
		t.Errorf("in-flight request finished with status %d, want 200 after drain", status)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
	if _, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(thresholdEnvelope)); err == nil {
		t.Error("post-shutdown request should fail to connect")
	}
}

// TestConfigValidation: a default backend outside the solver set must be
// rejected at construction.
func TestConfigValidation(t *testing.T) {
	if _, err := serve.New(serve.Config{DefaultBackend: "csim"}); err == nil {
		t.Error("unknown default backend should error")
	}
	if _, err := serve.New(serve.Config{Solvers: map[string]solve.Solver{}}); err == nil {
		t.Error("empty solver set should error")
	}
	g := &gatedSolver{name: "gated"}
	if _, err := serve.New(serve.Config{Solvers: map[string]solve.Solver{"gated": g}}); err == nil {
		t.Error("non-standard solver set without DefaultBackend should error")
	}
}
