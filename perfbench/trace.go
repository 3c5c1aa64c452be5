package main

import (
	"context"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"feasim/internal/solve"
)

// span is one timed interval at a layer boundary. Spans of one client
// request share Req; Parent names the span that caused this one (0: the
// client's own span, which lives in the load generator).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns on the recording process's monotonic clock
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// reqHeader carries the load generator's request ID to the node.
const reqHeader = "X-Perfbench-Req"

// recorder keeps spans in memory until the run collects them.
type recorder struct {
	origin time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the recorded spans and forgets them.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// spanCtx is the span a context's work belongs to.
type spanCtx struct{ req, id uint64 }

type spanKey struct{}

func parentOf(ctx context.Context) spanCtx {
	p, _ := ctx.Value(spanKey{}).(spanCtx)
	return p
}

// middleware records a span around every /v1/query and /v1/batch request
// the serve handler answers, and hands its identity to the solver and peer
// wrappers through the request context.
func (r *recorder) middleware(name func(*http.Request) string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n := name(req)
		if n == "" {
			next.ServeHTTP(w, req)
			return
		}
		id := r.nextID.Add(1)
		rid, _ := strconv.ParseUint(req.Header.Get(reqHeader), 10, 64)
		ctx := context.WithValue(req.Context(), spanKey{}, spanCtx{req: rid, id: id})
		start := r.now()
		next.ServeHTTP(w, req.WithContext(ctx))
		r.add(span{ID: id, Req: rid, Name: n, Start: start, End: r.now()})
	})
}

// tracedSolver records a span per backend execution. The serve layer calls
// it only on answer-cache misses, so its spans are the solve layer's miss
// path, named solve.miss.<backend>.<kind>.
type tracedSolver struct {
	solve.Solver
	rec *recorder
}

func (t tracedSolver) Answer(ctx context.Context, q solve.Query) (solve.Answer, error) {
	p := parentOf(ctx)
	start := t.rec.now()
	a, err := t.Solver.Answer(ctx, q)
	t.rec.add(span{ID: t.rec.nextID.Add(1), Parent: p.id, Req: p.req,
		Name: "solve.miss." + t.Name() + "." + q.Kind(), Start: start, End: t.rec.now()})
	return a, err
}

// tracedTransport records a span per peer forward, from the request write
// to the response body's close.
type tracedTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/v1/healthz" {
		// Health probes are the ring's background work, not a request's.
		return t.base.RoundTrip(req)
	}
	p := parentOf(req.Context())
	sp := span{ID: t.rec.nextID.Add(1), Parent: p.id, Req: p.req, Name: "peer.forward", Start: t.rec.now()}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.End = t.rec.now()
		t.rec.add(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		sp.End = t.rec.now()
		t.rec.add(sp)
	}}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// coveredNS is the length of the union of the intervals, clipped to
// [lo, hi]. Children that run concurrently (a batch's item workers) are
// counted once.
func coveredNS(lo, hi int64, ivs [][2]int64) int64 {
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total int64
	cur := [2]int64{-1, -1}
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if cur[1] < 0 || s > cur[1] {
			if cur[1] > cur[0] {
				total += cur[1] - cur[0]
			}
			cur = [2]int64{s, e}
			continue
		}
		cur[1] = max(cur[1], e)
	}
	if cur[1] > cur[0] {
		total += cur[1] - cur[0]
	}
	return total
}

// selfNS is a span's self time: its duration minus the part of it its
// children cover.
func selfNS(parent span, children []span) int64 {
	ivs := make([][2]int64, len(children))
	for i, c := range children {
		ivs[i] = [2]int64{c.Start, c.End}
	}
	return parent.dur() - coveredNS(parent.Start, parent.End, ivs)
}
