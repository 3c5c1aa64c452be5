package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"
)

// Offered open-loop rates in req/s: a fifth (served_cold, cluster_hot) to
// an eighth (served_hot) of the closed-loop capacity the benchmark measured
// on one CPU of a 2-vCPU host at the commit that introduced it; at half the
// capacity, queueing on the one connection made the percentiles swing by
// ±50% between runs of the same code. cluster_cold offers served_cold's
// rate, so the two differ only in the ring. They are constants on purpose:
// a rate derived at run time would move with the code under test and hide
// a regression as a lighter load.
var openRate = map[string]float64{
	wlServedHot:   1000,
	wlServedCold:  150,
	wlClusterHot:  400,
	wlClusterCold: 150,
}

// closedCeiling is the closed-loop rate, in req/s, the drawn request stream
// lasts for: five to ten times the capacity measured when the benchmark was
// written. A phase that runs out of requests fails the run rather than
// report a capped capacity.
var closedCeiling = map[string]float64{
	wlServedHot:   40000,
	wlServedCold:  8000,
	wlClusterHot:  20000,
	wlClusterCold: 6000,
}

// lateBound is how late the load generator may send at p99 (lateP99)
// before a run is marked invalid instead of reported.
const lateBound = 25 * time.Millisecond

// setupReps is how many times a run sets up: the rounds of a served run
// and the set-up processes of sweep_batch; setup_s is their median.
const setupReps = 11

// layerSumTolerance is the share of client-observed latency the traced
// layer rows may leave unexplained on a served workload before the run
// fails (see layerSplit.check).
const layerSumTolerance = 0.10

// openPhase is one measured open-loop phase.
type openPhase struct {
	res        []result
	snap0      []snapshot
	snap1      []snapshot
	clientCPU  time.Duration
	waitingMax int64
	spans      [][]span // per node, traced runs only
}

func snapAll(nodes []*nodeProc) ([]snapshot, error) {
	out := make([]snapshot, len(nodes))
	for i, np := range nodes {
		s, err := np.snap()
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// measureOpen runs one open-loop phase against live nodes.
func measureOpen(w *workload, nodes []*nodeProc, at []int64, idBase uint64, poll, traced bool) (openPhase, error) {
	var ph openPhase
	p := prepare(w, nodes, w.open[:len(at)])
	var err error
	if traced {
		// Drop the set-up's spans: the split covers the timed phase only.
		for _, np := range nodes {
			if _, err := np.spans(); err != nil {
				return ph, err
			}
		}
	}
	if ph.snap0, err = snapAll(nodes); err != nil {
		return ph, err
	}
	var waiting func() int64
	ctx, cancel := context.WithCancel(context.Background())
	if poll {
		waiting = monitor(ctx, nodes)
	}
	cpu0 := cpuSelf()
	ph.res = openLoop(p, at, idBase)
	ph.clientCPU = cpuSelf() - cpu0
	cancel()
	if waiting != nil {
		ph.waitingMax = waiting()
	}
	if ph.snap1, err = snapAll(nodes); err != nil {
		return ph, err
	}
	if traced {
		for _, np := range nodes {
			s, err := np.spans()
			if err != nil {
				return ph, err
			}
			ph.spans = append(ph.spans, s)
		}
	}
	return ph, nil
}

// latencies returns each result's latency in ms, a failed request counting
// as +Inf: it misses any latency limit.
func latencies(res []result) []float64 {
	out := make([]float64, len(res))
	for i, r := range res {
		out[i] = float64(r.latency()) / 1e6
		if r.err != nil || r.status != http.StatusOK {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// windowSamples is the least number of samples a p99 window holds, so at
// least ten lie beyond each window's p99.
const windowSamples = 1000

// windowedP99 splits samples, in arrival order, into the most windows (an
// odd number) of at least windowSamples each and returns the median of the
// windows' p99s and the window count. The median keeps a stall that hits
// one window (another tenant of a shared host taking the CPU) from moving
// the run's tail.
func windowedP99(samples []float64) (float64, int) {
	n := max(len(samples)/windowSamples, 1)
	if n%2 == 0 {
		// An odd count, so the median is one window's p99, not the lower
		// of the middle two.
		n--
	}
	p99s := make([]float64, n)
	for k := range p99s {
		p99s[k] = quantile(samples[k*len(samples)/n:(k+1)*len(samples)/n], 0.99)
	}
	return median(p99s), n
}

// lateP99 is the load generator's own lateness at p99: how long after a
// request could go out (its due time, or the previous response if that
// came later) it was sent.
func lateP99(res []result) time.Duration {
	late := make([]float64, len(res))
	var prevDone int64
	for i, r := range res {
		late[i] = float64(r.sent - max(r.intended, prevDone))
		prevDone = r.done
	}
	return time.Duration(quantile(late, 0.99))
}

// counterDelta sums a counter's movement over the phase across nodes.
func counterDelta(ph openPhase, f func(snapshot) float64) float64 {
	var d float64
	for i := range ph.snap1 {
		d += f(ph.snap1[i]) - f(ph.snap0[i])
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// setUp starts the workload's nodes and answers its warm-up requests: the
// set-up setup_s times.
func setUp(w *workload, traced bool) ([]*nodeProc, time.Duration, error) {
	t := time.Now()
	nodes, err := startNodes(w.nodes, traced, w.cache, !w.noHedge)
	if err != nil {
		return nil, 0, err
	}
	if err := warmUp(prepare(w, nodes, w.warm)); err != nil {
		stopNodes(nodes)
		return nil, 0, err
	}
	return nodes, time.Since(t), nil
}

// measureServed is the untraced run: setupReps rounds, each on freshly
// started nodes, of set-up, an open-loop phase at the fixed rate on the
// schedule at, and a closed-loop capacity phase. Every round sends the same
// requests. A metric is the median over rounds (p99: over windows of the
// pooled open-loop samples): the speed of a server process varies from one
// start to the next, and one slow start should not move the run.
func measureServed(rep *report, w *workload, o *oracle, rate float64, at []int64, d time.Duration) error {
	openD := d * 6 / 10 / setupReps
	closedD := d * 4 / 10 / setupReps
	var setups, p50s, p99s, caps, pts, rss []float64
	var lat, qLat, bLat, wait, client []float64
	byShape := map[string][]float64{}
	var clientCPU, serverCPU time.Duration
	var closedN int
	var late time.Duration
	for k := 0; k < setupReps; k++ {
		nodes, took, err := setUp(w, false)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		ph, err := measureOpen(w, nodes, at, 1, false, false)
		var closed []result
		var end []snapshot
		var pc []prepared
		if err == nil {
			pc = prepare(w, nodes, w.closed)
			cpu0 := cpuSelf()
			closed = closedLoop(pc, closedD, 1<<40)
			clientCPU += cpuSelf() - cpu0
			end, err = snapAll(nodes)
		}
		if err == nil && k == 0 {
			if rerr := serverRef(nodes[0]); rerr != nil {
				rep.refErr = rerr
			}
		}
		stopNodes(nodes)
		if err != nil {
			return err
		}
		late = max(late, lateP99(ph.res))
		l := latencies(ph.res)
		lat = append(lat, l...)
		p50s = append(p50s, quantile(l, 0.5))
		p99s = append(p99s, quantile(l, 0.99))
		for i, r := range ph.res {
			if w.open[r.req].Batch {
				bLat = append(bLat, l[i])
			} else {
				qLat = append(qLat, l[i])
				shape := w.items[w.open[r.req].Items[0]].Shape
				byShape[shape] = append(byShape[shape], l[i])
			}
			wait = append(wait, float64(r.sent-r.intended)/1e6)
			client = append(client, float64(r.done-r.sent)/1e6)
		}
		// Whole-phase rates: a window short enough to take a median over
		// would hold a handful of DES reports or batches, and its rate
		// would jump with their count.
		var done, points int
		for _, r := range closed {
			if time.Duration(r.done) <= closedD && r.err == nil && r.status == http.StatusOK {
				done++
				points += len(w.closed[r.req].Items)
			}
		}
		if len(closed) == len(pc) {
			return fmt.Errorf("closed loop ran out of its %d requests in %v: capacity above %.0f req/s, raise closedCeiling",
				len(pc), closedD, closedCeiling[w.name])
		}
		caps = append(caps, float64(done)/closedD.Seconds())
		pts = append(pts, float64(points)/closedD.Seconds())
		var mb float64
		for i, s := range end {
			mb += float64(s.MaxRSSKB) / 1024
			serverCPU += time.Duration(s.CPUNS - ph.snap1[i].CPUNS)
		}
		rss = append(rss, mb)
		closedN += len(closed)
		if k == 0 {
			rep.noteProps(w.name, ph, inputProps(o, w, w.open, ph.res))
		}
		rep.addPhase(fmt.Sprintf("open.%d", k), o, w, w.open, ph.res)
		rep.addPhase(fmt.Sprintf("closed.%d", k), o, w, w.closed, closed)
	}
	if late > lateBound {
		return errInvalid{late}
	}
	p99, windows := windowedP99(lat)
	rep.set("setup_s", median(setups))
	rep.set("p50_ms", median(p50s))
	rep.set("p99_ms", p99)
	rep.set("capacity_qps", median(caps))
	rep.set("points_per_s", median(pts))
	rep.set("rss_mb", median(rss))
	rep.note("rounds: %d, each on fresh nodes; setup_s %v; p50 %v ms; p99 %v ms; capacity %v req/s", setupReps, setups, p50s, p99s, caps)
	rep.note("open loop: %.0f req/s offered for %v a round, %d samples in %d p99 windows (each >= %d samples, >= 10 beyond its p99); pooled p99 %.4f ms; generator late p99 %v",
		rate, openD, len(lat), windows, windowSamples, quantile(lat, 0.99), late)
	rep.note("latency by request type: query p50 %.4f p99 %.4f ms (n=%d); batch p50 %.4f p99 %.4f ms (n=%d); due-to-send wait p50 %.4f p99 %.4f ms; client span p50 %.4f p99 %.4f ms",
		quantile(qLat, 0.5), quantile(qLat, 0.99), len(qLat), quantile(bLat, 0.5), quantile(bLat, 0.99), len(bLat),
		quantile(wait, 0.5), quantile(wait, 0.99), quantile(client, 0.5), quantile(client, 0.99))
	var parts []string
	for _, sh := range sortedKeys(byShape) {
		v := byShape[sh]
		parts = append(parts, fmt.Sprintf("%s %.1f%% p10/p50/p90 %.3f/%.3f/%.3f", sh, 100*float64(len(v))/float64(len(qLat)),
			quantile(v, 0.1), median(v), quantile(v, 0.9)))
	}
	rep.note("query latency by shape (ms): %s", strings.Join(parts, "; "))
	rep.note("closed loop: one connection for %v a round; CPU per request: client %.1f us, servers %.1f us",
		closedD, 1e6*clientCPU.Seconds()/float64(max(closedN, 1)), 1e6*serverCPU.Seconds()/float64(max(closedN, 1)))
	return nil
}

// runServed measures one served workload. Untraced (trace false): see
// measureServed. Traced: an untraced and a traced open-loop phase on fresh
// nodes each, the span split, and the replayed layers.
func runServed(name string, seed uint64, d time.Duration, traced bool) (*report, error) {
	rep := newReport()
	rate := openRate[name]
	var atA, atB []int64
	if traced {
		atA = arrivals(seed, rate, d*4/10)
		atB = arrivals(seed+1, rate, d*6/10)
	} else {
		atA = arrivals(seed, rate, d*6/10/setupReps)
	}
	nClosed := 0
	if !traced {
		nClosed = int(math.Ceil(closedCeiling[name] * (d * 4 / 10 / setupReps).Seconds()))
	}
	w, err := buildServed(name, seed, max(len(atA), len(atB)), nClosed)
	if err != nil {
		return nil, err
	}
	o, err := newOracle()
	if err != nil {
		return nil, err
	}
	rep.refErr = checkRef(func(env []byte) ([]byte, error) { return o.answer(beAnalytic, env) })

	if !traced {
		if err := measureServed(rep, w, o, rate, atA, d); err != nil {
			return nil, err
		}
		return rep, nil
	}

	// Traced run: the same topology twice, without and with span wrappers.
	nodes, _, err := setUp(w, false)
	if err != nil {
		return nil, err
	}
	plain, err := measureOpen(w, nodes, atA, 1, true, false)
	stopNodes(nodes)
	if err != nil {
		return nil, err
	}
	if nodes, _, err = setUp(w, true); err != nil {
		return nil, err
	}
	ph, err := measureOpen(w, nodes, atB, 1, true, true)
	if err == nil {
		if rerr := serverRef(nodes[0]); rerr != nil {
			rep.refErr = rerr
		}
	}
	stopNodes(nodes)
	if err != nil {
		return nil, err
	}
	for _, p := range []openPhase{plain, ph} {
		if late := lateP99(p.res); late > lateBound {
			return nil, errInvalid{late}
		}
	}
	rep.addPhase("open_untraced", o, w, w.open, plain.res)
	rep.addPhase("open_traced", o, w, w.open, ph.res)

	p50Plain := quantile(latencies(plain.res), 0.5)
	p50Traced := quantile(latencies(ph.res), 0.5)
	rep.set("trace.overhead_pct", 100*(p50Traced-p50Plain)/p50Plain)
	rep.note("tracing overhead: p50 %.4f ms untraced, %.4f ms traced", p50Plain, p50Traced)

	split := splitLayers(w, ph, 1)
	split.apply(rep)
	resid := split.residual()
	rep.set("trace.layer_residual_pct", 100*resid)
	rep.layerErr = split.check()
	rep.note("layer sum: transport %.1f + serve %.1f + solve/peer %.1f = %.1f us of %.1f us mean client span; residual %.2f%% (tolerance %.0f%%; %d of %d requests matched a handler span); generator queue before send: mean %.1f us",
		split.meanTransport(), split.meanServe(), split.meanChildren(), split.meanSum(), split.meanLatency(), 100*resid,
		100*layerSumTolerance, split.matched, split.requests, mean(split.queueUS))

	rep.set("serve.rejected", counterDelta(ph, func(s snapshot) float64 { return float64(s.Stats.Rejected) }))
	rep.set("serve.waiting_max", float64(ph.waitingMax))
	hits := counterDelta(ph, func(s snapshot) float64 { return float64(s.Stats.Cache.Hits) })
	misses := counterDelta(ph, func(s snapshot) float64 { return float64(s.Stats.Cache.Misses) })
	rep.set("solve.cache_hit_ratio", ratio(hits, hits+misses))
	rep.set("solve.cache_evictions", counterDelta(ph, func(s snapshot) float64 { return float64(s.Stats.Cache.Evictions) }))
	rep.set("solve.coalesced", counterDelta(ph, func(s snapshot) float64 { return float64(s.Stats.Cache.Coalesced) }))
	th := counterDelta(ph, func(s snapshot) float64 { return float64(s.TablesHit) })
	tm := counterDelta(ph, func(s snapshot) float64 { return float64(s.TablesMis) })
	rep.set("core.tables_hit_ratio", ratio(th, th+tm))
	pbh := counterDelta(ph, func(s snapshot) float64 { return float64(s.PBHit) })
	pbm := counterDelta(ph, func(s snapshot) float64 { return float64(s.PBMis) })
	rep.set("core.pb_hit_ratio", ratio(pbh, pbh+pbm))
	rep.set("loadgen.late_p99_ms", float64(lateP99(ph.res))/1e6)
	rep.set("loadgen.client_cpu_s", ph.clientCPU.Seconds())
	rep.set("loadgen.server_cpu_s", counterDelta(ph, func(s snapshot) float64 { return float64(s.CPUNS) })/1e9)
	rep.set("loadgen.samples", float64(len(ph.res)))
	rep.zero(sweepMetrics...)
	if w.nodes == 1 {
		rep.zero(peerCounters...)
	} else {
		cl := func(f func(s snapshot) int64) float64 {
			return counterDelta(ph, func(s snapshot) float64 { return float64(f(s)) })
		}
		fwd := cl(func(s snapshot) int64 { return s.Stats.Cluster.Forwards })
		rhit := cl(func(s snapshot) int64 { return s.Stats.Cluster.ReplicaHits })
		fall := cl(func(s snapshot) int64 { return s.Stats.Cluster.Fallbacks })
		hedges := cl(func(s snapshot) int64 { return s.Stats.Cluster.Hedges })
		rep.set("peer.forward_share", ratio(fwd, float64(len(ph.res))))
		rep.set("peer.replica_hit_ratio", ratio(rhit, rhit+fwd+fall))
		rep.set("peer.hedges", hedges)
		rep.set("peer.hedge_win_ratio", ratio(cl(func(s snapshot) int64 { return s.Stats.Cluster.HedgesWon }), hedges))
		rep.set("peer.retries", cl(func(s snapshot) int64 { return s.Stats.Cluster.Retries }))
		rep.note("cluster: %.0f forwards, %.0f replica hits, %.0f fallbacks over %d requests", fwd, rhit, fall, len(ph.res))
	}
	props := inputProps(o, w, w.open, ph.res)
	rep.set("input.hit_share", props.hitShare)
	rep.set("input.distinct_share", props.distinctShare)
	rep.noteProps(name, ph, props)

	in := replayInputOf(o, w.items, distinctItems(w.open[:len(ph.res)]))
	rp, err := replay(seed, in)
	if err != nil {
		return nil, err
	}
	rp.apply(rep)
	return rep, nil
}

// serverRef sends the pinned analytic reference envelopes to a node and
// compares its answers at the reference tolerance.
func serverRef(np *nodeProc) error {
	cl := newClient()
	defer cl.CloseIdleConnections()
	return checkRef(func(env []byte) ([]byte, error) {
		st, body, err := do(cl, prepared{url: np.url + "/v1/query?backend=" + beAnalytic, body: env}, 0)
		if err != nil {
			return nil, err
		}
		if st != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", st, body)
		}
		var a wireAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, err
		}
		return canonical(a.Answer)
	})
}

// addPhase verifies a phase's responses and records its tally.
func (r *report) addPhase(name string, o *oracle, w *workload, reqs []request, res []result) {
	failed, first := verify(o, w, reqs, res)
	r.phases = append(r.phases, phaseCount{name: name, attempted: len(res), failed: failed, first: first})
}

// props are a phase's named input properties.
type props struct {
	hitShare, distinctShare float64
	answered                int
}

// inputProps measures the share of answered envelopes the server marked
// cached, and the share of distinct envelopes among those sent.
func inputProps(o *oracle, w *workload, reqs []request, res []result) props {
	var p props
	var cached int
	seen := map[int]bool{}
	for _, r := range res {
		for _, i := range reqs[r.req].Items {
			seen[i] = true
		}
		if r.err != nil || r.status != http.StatusOK {
			continue
		}
		n, c := countCached(reqs[r.req], r.body)
		p.answered += n
		cached += c
	}
	var sent int
	for _, r := range res {
		sent += len(reqs[r.req].Items)
	}
	p.hitShare = ratio(float64(cached), float64(p.answered))
	p.distinctShare = ratio(float64(len(seen)), float64(sent))
	return p
}

func (r *report) noteProps(name string, ph openPhase, p props) {
	th := counterDelta(ph, func(s snapshot) float64 { return float64(s.TablesHit) })
	tm := counterDelta(ph, func(s snapshot) float64 { return float64(s.TablesMis) })
	fwd := 0.0
	if ph.snap1[0].Stats.Cluster != nil {
		fwd = counterDelta(ph, func(s snapshot) float64 { return float64(s.Stats.Cluster.Forwards) })
	}
	r.note("input properties (%s): cache-hit share %.4f, forward share %.4f, kernel-memo hit share %.4f, distinct-envelope share %.4f",
		name, p.hitShare, ratio(fwd, float64(len(ph.res))), ratio(th, th+tm), p.distinctShare)
}

func distinctItems(reqs []request) []int {
	seen := map[int]bool{}
	var out []int
	for _, r := range reqs {
		for _, i := range r.Items {
			if !seen[i] {
				seen[i] = true
				out = append(out, i)
			}
		}
	}
	return out
}
