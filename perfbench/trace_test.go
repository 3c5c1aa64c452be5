package main

import "testing"

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 100, End: 200}
	kid := func(s, e int64) span { return span{Parent: 1, Start: s, End: e} }
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{kid(120, 150)}, 70},
		{"disjoint children", []span{kid(110, 120), kid(150, 190)}, 50},
		{"concurrent children counted once", []span{kid(110, 160), kid(130, 170), kid(140, 150)}, 40},
		{"children clipped to the parent", []span{kid(50, 130), kid(180, 260)}, 50},
		{"child covering the parent", []span{kid(0, 300)}, 0},
		{"touching children", []span{kid(110, 130), kid(130, 150)}, 60},
		{"unsorted input", []span{kid(170, 180), kid(105, 110)}, 85},
	} {
		if got := selfNS(parent, tc.children); got != tc.want {
			t.Errorf("%s: self %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestWindowedP99(t *testing.T) {
	// Three windows of windowSamples; one has a stall that lifts its p99.
	samples := make([]float64, 3*windowSamples)
	for i := range samples {
		samples[i] = 1
	}
	for i := 0; i < 20; i++ {
		samples[i] = 100
	}
	samples[windowSamples+1] = 2 // below each window's p99 rank
	p99, n := windowedP99(samples)
	if n != 3 || p99 != 1 {
		t.Errorf("windowedP99 = %v over %d windows, want 1 over 3", p99, n)
	}
}

func TestLayerSplitCheck(t *testing.T) {
	w := &workload{open: []request{{Items: []int{0}}, {Items: []int{1}}}}
	res := []result{
		{req: 0, sent: 0, done: 1000, status: 200},
		{req: 1, sent: 2000, done: 3000, status: 200},
	}
	handler := func(req, id uint64, start, end int64) span {
		return span{ID: id, Req: req, Name: "serve.query", Start: start, End: end}
	}
	solved := span{ID: 3, Parent: 1, Req: 1, Name: "solve.miss.exact.report", Start: 300, End: 700}
	both := openPhase{res: res, spans: [][]span{{handler(1, 1, 100, 900), solved, handler(2, 2, 2100, 2900)}}}
	s := splitLayers(w, both, 1)
	if err := s.check(); err != nil {
		t.Fatalf("complete split: %v", err)
	}
	if s.matched != 2 || s.meanTransport() != 0.2 || s.meanServe() != 0.6 || s.meanChildren() != 0.2 {
		t.Errorf("split: matched %d, transport %v serve %v children %v us; want 2, 0.2, 0.6, 0.2",
			s.matched, s.meanTransport(), s.meanServe(), s.meanChildren())
	}
	// The second request's handler span is missing: half the client time
	// is unexplained, and the check must fail.
	missing := openPhase{res: res, spans: [][]span{{handler(1, 1, 100, 900), solved}}}
	s = splitLayers(w, missing, 1)
	if err := s.check(); err == nil {
		t.Errorf("split with a missing handler span passed (matched %d of %d, residual %v)", s.matched, s.requests, s.residual())
	}
}
