package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
)

// layerSplit is the traced per-layer decomposition of one open-loop phase.
type layerSplit struct {
	transportUS, queryUS, batchUS []float64
	missUS                        map[string][]float64 // by solver span name
	solveNS                       map[string]int64     // solver span time by backend
	forwardUS                     []float64
	queueUS                       []float64 // due time → send, per request
	// Sums over requests, in ns: the client span (send → body read), and
	// the three layer rows of the requests matched to a handler span.
	latNS, transportNS, serveNS, childNS int64
	matched, requests                    int
}

// splitLayers joins the load generator's requests with the nodes' spans by
// request ID. For a request entering node n whose handler span is h:
//
//	transport = client span (send → body read) − h
//	serve     = h − the part of h its solve and forward children cover
//	children  = that covered part
//
// Transport is a difference, so for a matched request the three rows add up
// to its client span by construction; what the sum checks is coverage: a
// request whose handler span is missing, or children recorded outside their
// parent, leave client time unexplained. The wait between a request's due
// time and its send (every connection busy) is the load generator's queue,
// reported on its own.
func splitLayers(w *workload, ph openPhase, idBase uint64) layerSplit {
	sp := layerSplit{missUS: map[string][]float64{}, solveNS: map[string]int64{}}
	type nodeIndex struct {
		byReq map[uint64]span
		kids  map[uint64][]span
	}
	idx := make([]nodeIndex, len(ph.spans))
	for n, spans := range ph.spans {
		ni := nodeIndex{byReq: map[uint64]span{}, kids: map[uint64][]span{}}
		for _, s := range spans {
			switch {
			case strings.HasPrefix(s.Name, "serve."):
				if s.Req != 0 {
					ni.byReq[s.Req] = s
				}
			case strings.HasPrefix(s.Name, "solve.miss."):
				name := "solve.miss_us." + strings.TrimPrefix(s.Name, "solve.miss.")
				sp.missUS[name] = append(sp.missUS[name], float64(s.dur())/1e3)
				sp.solveNS[strings.SplitN(strings.TrimPrefix(s.Name, "solve.miss."), ".", 2)[0]] += s.dur()
			case s.Name == "peer.forward":
				sp.forwardUS = append(sp.forwardUS, float64(s.dur())/1e3)
			}
			if s.Parent != 0 {
				ni.kids[s.Parent] = append(ni.kids[s.Parent], s)
			}
		}
		idx[n] = ni
	}
	for _, r := range ph.res {
		sp.requests++
		sp.latNS += r.done - r.sent
		sp.queueUS = append(sp.queueUS, float64(r.sent-r.intended)/1e3)
		req := w.open[r.req]
		ni := idx[req.Node%len(idx)]
		h, ok := ni.byReq[idBase+uint64(r.req)]
		if !ok || r.err != nil {
			continue
		}
		sp.matched++
		self := selfNS(h, ni.kids[h.ID])
		transport := (r.done - r.sent) - h.dur()
		sp.transportNS += transport
		sp.serveNS += self
		sp.childNS += h.dur() - self
		sp.transportUS = append(sp.transportUS, float64(transport)/1e3)
		if req.Batch {
			sp.batchUS = append(sp.batchUS, float64(self)/1e3)
		} else {
			sp.queryUS = append(sp.queryUS, float64(self)/1e3)
		}
	}
	return sp
}

func (s layerSplit) mean(ns int64) float64 { return float64(ns) / float64(max(s.requests, 1)) / 1e3 }

func (s layerSplit) meanLatency() float64   { return s.mean(s.latNS) }
func (s layerSplit) meanTransport() float64 { return s.mean(s.transportNS) }
func (s layerSplit) meanServe() float64     { return s.mean(s.serveNS) }
func (s layerSplit) meanChildren() float64  { return s.mean(s.childNS) }
func (s layerSplit) meanSum() float64       { return s.mean(s.transportNS + s.serveNS + s.childNS) }

// residual is the share of client-observed time (send → body read) the
// layer rows leave unexplained.
func (s layerSplit) residual() float64 {
	return ratio(float64(s.latNS-s.transportNS-s.serveNS-s.childNS), float64(s.latNS))
}

// check fails a split that leaves client time unexplained: a request
// with no handler span, or a residual beyond layerSumTolerance.
func (s layerSplit) check() error {
	if s.matched < s.requests {
		return fmt.Errorf("%d of %d requests have no handler span", s.requests-s.matched, s.requests)
	}
	if r := s.residual(); math.Abs(r) > layerSumTolerance {
		return fmt.Errorf("layer rows leave %.2f%% of client time unexplained (tolerance %.0f%%)", 100*r, 100*layerSumTolerance)
	}
	return nil
}

// apply records the split's per-layer medians.
func (s layerSplit) apply(rep *report) {
	rep.set("transport.self_us", median(s.transportUS))
	rep.set("serve.query_self_us", median(s.queryUS))
	rep.set("serve.batch_self_us", median(s.batchUS))
	rep.setMissUS(s.missUS)
	var total int64
	for _, ns := range s.solveNS {
		total += ns
	}
	for _, b := range []string{beAnalytic, beExact, beDES} {
		rep.set("solve.share."+b, ratio(float64(s.solveNS[b]), float64(total)))
	}
	rep.set("peer.forward_us", median(s.forwardUS))
	rep.set("loadgen.queue_us", median(s.queueUS))
	for _, name := range sortedKeys(s.missUS) {
		rep.note("%s: %d spans, median %.1f us", name, len(s.missUS[name]), median(s.missUS[name]))
	}
}

// countCached returns how many envelopes a 200 response answered and how
// many of them it marked cached.
func countCached(r request, body []byte) (answered, cached int) {
	var v struct {
		Cached bool `json:"cached"`
		Items  []struct {
			Status int  `json:"status"`
			Cached bool `json:"cached"`
		} `json:"items"`
	}
	if json.Unmarshal(body, &v) != nil {
		return 0, 0
	}
	if !r.Batch {
		if v.Cached {
			return 1, 1
		}
		return 1, 0
	}
	for _, it := range v.Items {
		if it.Status == http.StatusOK {
			answered++
			if it.Cached {
				cached++
			}
		}
	}
	return answered, cached
}

// apply records the replayed layer times.
func (rp replayed) apply(rep *report) {
	rep.set("solve.parse_us", rp.parseUS)
	rep.set("solve.cache_lookup_us", rp.lookupUS)
	rep.set("core.tables_build_us", rp.tablesBuildUS)
	rep.set("core.pb_build_us", rp.pbBuildUS)
	rep.set("core.analyze_fleet_us", rp.fleetUS)
	rep.set("sim.exact_sample_us", rp.exactSampleUS)
	rep.set("des.job_us", rp.desJobUS)
	rep.set("timeline.answer_us", rp.timelineUS)
}
