package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"feasim/internal/solve"
)

// stream flattens a served workload's inputs into the bytes a server
// would see, in order.
func stream(t *testing.T, name string, seed uint64) []string {
	t.Helper()
	w, err := buildServed(name, seed, 300, 100)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, list := range [][]request{w.warm, w.open, w.closed} {
		for _, r := range list {
			for _, i := range r.Items {
				out = append(out, w.items[i].Backend+" "+string(w.items[i].Env))
			}
			out = append(out, "|")
		}
	}
	return out
}

func TestSeedDeterminesEnvelopeStream(t *testing.T) {
	for _, name := range []string{wlServedHot, wlServedCold, wlClusterHot, wlClusterCold} {
		a, b := stream(t, name, 7), stream(t, name, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different envelope streams", name)
		}
		if c := stream(t, name, 8); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same envelope stream", name)
		}
	}
	sweep := func(seed uint64) string {
		var specs []any
		for _, j := range buildSweepJobs(seed, 50) {
			if j.front.Base != nil {
				specs = append(specs, j.front)
			} else {
				specs = append(specs, j.grid)
			}
		}
		b, err := json.Marshal(specs)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if sweep(7) != sweep(7) {
		t.Error("sweep_batch: the same seed gave two different job queues")
	}
	if sweep(7) == sweep(8) {
		t.Error("sweep_batch: seeds 7 and 8 gave the same job queue")
	}
}

func TestColdEnvelopesAreDistinct(t *testing.T) {
	for _, name := range []string{wlServedCold, wlClusterCold} {
		w, err := buildServed(name, 3, 2000, 0)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		nodes := map[int]bool{}
		for _, r := range w.open {
			if seen[r.Items[0]] {
				t.Fatalf("%s repeated envelope %s", name, w.items[r.Items[0]].Env)
			}
			seen[r.Items[0]] = true
			nodes[r.Node] = true
		}
		if len(nodes) != w.nodes {
			t.Errorf("%s: requests enter %d of its %d nodes", name, len(nodes), w.nodes)
		}
	}
}

func TestZipfHotKeyShare(t *testing.T) {
	const draws = 400000
	z := newZipf(rand.New(rand.NewPCG(1, 2)), hotPoolSize)
	counts := make([]int, hotPoolSize)
	for i := 0; i < draws; i++ {
		counts[z.next()]++
	}
	// Rank 0's share under P(k) ∝ (1+k)^-zipfS.
	var h float64
	for k := 0; k < hotPoolSize; k++ {
		h += math.Pow(1+float64(k), -zipfS)
	}
	top := 1 / h
	for k := 0; k < 4; k++ {
		want := top * math.Pow(1+float64(k), -zipfS)
		got := float64(counts[k]) / draws
		if math.Abs(got-want) > 0.03*want {
			t.Errorf("rank %d share %.4f, want %.4f (zipf s=%v over %d keys)", k, got, want, zipfS, hotPoolSize)
		}
	}
}

func TestRotationKeepsTheMix(t *testing.T) {
	rot := newRotation(coldMix)
	var total float64
	for _, m := range coldMix {
		total += m.weight
	}
	const n = 20000
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		counts[rot.next()]++
	}
	for _, m := range coldMix {
		want := n * m.weight / total
		if math.Abs(float64(counts[m.shape])-want) > 1 {
			t.Errorf("%s: %d of %d, want %.1f", m.shape, counts[m.shape], n, want)
		}
	}
}

// Every sweep segment must hold the same jobs by shape, so the per-segment
// medians of sweep_batch compare like with like.
func TestSweepSegmentsHoldTheSameShapes(t *testing.T) {
	jobs := buildSweepJobs(1, 40*sweepSegment)
	var first map[string]int
	for s := 0; s < len(jobs); s += sweepSegment {
		counts := map[string]int{}
		for _, j := range jobs[s : s+sweepSegment] {
			counts[j.shape]++
		}
		if first == nil {
			first = counts
			for _, m := range sweepMix {
				if want := m.weight * sweepSegment; math.Abs(float64(counts[m.shape])-want) > 1e-9 {
					t.Errorf("%s: %d jobs in a segment of %d, want %v", m.shape, counts[m.shape], sweepSegment, want)
				}
			}
		} else if !reflect.DeepEqual(counts, first) {
			t.Fatalf("segment at job %d holds %v, the first %v", s, counts, first)
		}
	}
}

func TestDESEnvelopeIsReplayedScenario(t *testing.T) {
	q, err := solve.ParseQuery(newGen(1, 1).envelope("des.report", true).Env)
	if err != nil {
		t.Fatal(err)
	}
	sc := q.(solve.ReportQuery).Scenario
	sc.Seed = 0
	if !reflect.DeepEqual(sc, desScenario) {
		t.Errorf("des.report envelope scenario %+v, replayed desScenario %+v", sc, desScenario)
	}
}
