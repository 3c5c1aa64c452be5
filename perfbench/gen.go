package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"

	"feasim/internal/solve"
)

// Workload names, as passed to --workload.
const (
	wlServedHot   = "served_hot"
	wlServedCold  = "served_cold"
	wlClusterHot  = "cluster_hot"
	wlClusterCold = "cluster_cold"
	wlSweepBatch  = "sweep_batch"
)

// workloadNames lists every workload in the order the doc describes them.
var workloadNames = []string{wlServedHot, wlServedCold, wlClusterHot, wlClusterCold, wlSweepBatch}

// Backend names as the server's ?backend= selector spells them.
const (
	beAnalytic = "analytic"
	beExact    = "exact"
	beDES      = "des"
)

// item is one query envelope together with the backend it is addressed to.
type item struct {
	Backend string
	// Shape names the envelope template, "<backend>.<kind>" or
	// "analytic.fleet" for heterogeneous reports.
	Shape string
	Env   []byte
}

// request is one HTTP request of a served workload: a single /v1/query
// (one item) or a /v1/batch (several items, one backend).
type request struct {
	Items []int // indices into the workload's item table
	Batch bool
	Node  int // entry node, for the cluster workload
}

// Zipf skew of the hot key pools: P(rank k) ∝ (1+k)^-zipfS.
const zipfS = 1.1

// Hot-pool and batch shape.
const (
	hotPoolSize    = 384
	clusterPool    = 768
	batchItems     = 64
	batchShareHot  = 0.05
	coldDESShare   = 0.015
	timelineEpochs = 6
	// coldWarmPerShape is how many fixed envelopes of each shape a
	// served_cold node answers during set-up.
	coldWarmPerShape = 4
)

// shapeWeight is one entry of a workload's envelope mix.
type shapeWeight struct {
	shape  string
	weight float64
}

// The envelope mixes. The hot pool mixes every analytic kind the served
// path answers with the exact-sim kinds; the cold mix adds the DES report
// that the cold tail is made of and weights the search-heavy shapes.
var (
	hotMix = []shapeWeight{
		{"analytic.report", 0.24}, {"analytic.threshold", 0.14}, {"analytic.fleet", 0.12},
		{"analytic.timeline", 0.10}, {"exact.threshold", 0.14}, {"exact.report", 0.13},
		{"exact.distribution", 0.13},
	}
	coldMix = []shapeWeight{
		{"exact.threshold", 0.25}, {"exact.report", 0.20}, {"exact.distribution", 0.15},
		{"analytic.fleet", 0.12}, {"analytic.timeline", 0.10}, {"analytic.threshold", 0.08},
		{"analytic.report", 0.085}, {"des.report", coldDESShare},
	}
	// The cluster pool leaves out fleets and DES: a home-node miss there
	// costs milliseconds and would turn the peer workload into a solve one.
	clusterMix = []shapeWeight{
		{"analytic.report", 0.30}, {"analytic.threshold", 0.20}, {"analytic.timeline", 0.10},
		{"exact.threshold", 0.14}, {"exact.report", 0.13}, {"exact.distribution", 0.13},
	}
)

// desScenario is the operating point of every des.report envelope, and the
// one des.job_us replays.
var desScenario = solve.Scenario{J: 400, W: 4, O: 10, Util: 0.1}

// gen draws a workload's inputs from one seeded stream. items holds every
// distinct envelope; index dedupes them by backend and bytes.
type gen struct {
	r     *rand.Rand
	items []item
	index map[string]int
}

// newGen returns a generator for one input stream of a seed. Streams keep
// the phases of a run independent: drawing more warm-up inputs never shifts
// the timed ones.
func newGen(seed, stream uint64) *gen {
	return &gen{r: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream)), index: map[string]int{}}
}

// add stores it (once) and returns its index.
func (g *gen) add(it item) int {
	key := it.Backend + "|" + string(it.Env)
	if i, ok := g.index[key]; ok {
		return i
	}
	g.items = append(g.items, it)
	g.index[key] = len(g.items) - 1
	return len(g.items) - 1
}

// rotation yields a mix's shapes by smooth weighted round-robin: each in
// proportion to its weight and evenly spread. The sequence is the same on
// every seed, so a seed changes an input's parameters but never the mix or
// the order of its costs, which would move the tail percentiles.
type rotation struct {
	mix   []shapeWeight
	cur   []float64
	total float64
}

func newRotation(mix []shapeWeight) *rotation {
	r := &rotation{mix: mix, cur: make([]float64, len(mix))}
	for _, m := range mix {
		r.total += m.weight
	}
	return r
}

func (r *rotation) next() string {
	best := 0
	for i, m := range r.mix {
		r.cur[i] += m.weight
		if r.cur[i] > r.cur[best] {
			best = i
		}
	}
	r.cur[best] -= r.total
	return r.mix[best].shape
}

// uniform draws from [lo, hi). Coarse draws round to three decimals, so a
// pool's analytic keys repeat the kernel (N, P) keys a real planner reuses;
// fine draws keep every digit, so each envelope is a new analytic key.
func (g *gen) uniform(lo, hi float64, fine bool) float64 {
	v := lo + (hi-lo)*g.r.Float64()
	if fine {
		return v
	}
	return math.Round(v*1000) / 1000
}

// intn draws from [lo, hi].
func (g *gen) intn(lo, hi int) int { return lo + g.r.IntN(hi-lo+1) }

// envelope renders one envelope of the named shape.
func (g *gen) envelope(shape string, fine bool) item {
	f := func(v float64) string { return fmt.Sprintf("%v", v) }
	var env string
	backend := shape[:strings.IndexByte(shape, '.')]
	switch shape {
	case "analytic.report":
		w := g.intn(4, 64)
		ratio := g.intn(5, 100)
		j := ratio * 10 * w
		env = fmt.Sprintf(`{"kind":"report","scenario":{"j":%d,"w":%d,"o":10,"util":%s,"deadline":%d,"target_eff":0.8}}`,
			j, w, f(g.uniform(0.01, 0.2, fine)), j/w*3/2)
	case "analytic.threshold":
		env = fmt.Sprintf(`{"kind":"threshold","w":%d,"o":10,"util":%s,"target_eff":%s}`,
			g.intn(4, 64), f(g.uniform(0.01, 0.2, fine)), f([]float64{0.7, 0.8, 0.9}[g.r.IntN(3)]))
	case "analytic.fleet":
		// A deadline, not a feasibility target: a fleet report whose target
		// is unreachable answers min_job_demand = +Inf, which the server
		// cannot encode (a 500; see README.md, "Known defects").
		c1, c2, c3 := g.intn(2, 12), g.intn(2, 12), g.intn(2, 8)
		ratio := g.intn(10, 50)
		env = fmt.Sprintf(`{"kind":"report","scenario":{"j":%d,"o":10,"deadline":%d,"stations":[{"p":%s,"count":%d},{"util":%s,"count":%d},{"p":%s,"speed":2,"count":%d}]}}`,
			ratio*10*(c1+c2+c3), ratio*15, f(g.uniform(0.01, 0.05, fine)), c1, f(g.uniform(0.02, 0.1, fine)), c2,
			f(g.uniform(0.01, 0.04, fine)), c3)
	case "analytic.timeline":
		env = fmt.Sprintf(`{"kind":"timeline","scenario":{"j":%d,"w":4,"o":10,"target_eff":0.5,"schedule":[{"name":"morning","duration":480,"util":%s},{"name":"afternoon","duration":480,"util":%s},{"name":"night","duration":480,"util":%s}]},"epochs":%d}`,
			100*g.intn(2, 12), f(g.uniform(0.05, 0.2, fine)), f(g.uniform(0.2, 0.4, fine)), f(g.uniform(0.01, 0.05, fine)), timelineEpochs)
	case "exact.threshold":
		env = fmt.Sprintf(`{"kind":"threshold","w":10,"o":10,"util":%s,"target_eff":0.8,"seed":%d}`,
			f(g.uniform(0.05, 0.15, false)), g.r.Uint64()>>1)
	case "exact.report":
		env = fmt.Sprintf(`{"kind":"report","scenario":{"j":1000,"w":10,"o":10,"util":%s,"seed":%d}}`,
			f(g.uniform(0.05, 0.15, false)), g.r.Uint64()>>1)
	case "des.report":
		// One operating point: a DES report is the cold tail, and its
		// cost should vary with the code, not with the drawn utilization.
		sc := desScenario
		env = fmt.Sprintf(`{"kind":"report","scenario":{"j":%v,"w":%d,"o":%v,"util":%v,"seed":%d}}`,
			sc.J, sc.W, sc.O, sc.Util, g.r.Uint64()>>1)
	case "exact.distribution":
		env = fmt.Sprintf(`{"kind":"distribution","scenario":{"j":1000,"w":10,"o":10,"util":%s,"seed":%d},"deadlines":[150]}`,
			f(g.uniform(0.05, 0.15, false)), g.r.Uint64()>>1)
	default:
		panic("perfbench: unknown envelope shape " + shape)
	}
	return item{Backend: backend, Shape: shape, Env: []byte(env)}
}

// pool draws n distinct envelopes from a mix, in popularity-rank order.
// The shape at each rank follows the mix's rotation, so the hottest keys
// are of the same kinds on every seed.
func (g *gen) pool(n int, mix []shapeWeight) []int {
	out := make([]int, 0, n)
	seen := map[int]bool{}
	rot := newRotation(mix)
	shape := rot.next()
	for len(out) < n {
		i := g.add(g.envelope(shape, false))
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
			shape = rot.next()
		}
	}
	return out
}

// zipf draws popularity ranks in [0, n) with P(k) ∝ (1+k)^-zipfS.
type zipf struct{ z *rand.Zipf }

func newZipf(r *rand.Rand, n int) zipf { return zipf{rand.NewZipf(r, zipfS, 1, uint64(n-1))} }

func (z zipf) next() int { return int(z.z.Uint64()) }

// workload is the generated input of one served workload: the shared item
// table, the warm-up requests, and the two timed request streams.
type workload struct {
	name  string
	nodes int
	cache int // answer-cache capacity per node; 0 keeps the server default
	// noHedge turns the ring's hedged forwards off (see cluster_cold).
	noHedge bool
	items   []item
	warm    []request
	open    []request // open-loop phase, in arrival order
	closed  []request // closed-loop phase, consumed in order
}

// buildServed generates a served workload's inputs from the seed. nOpen and
// nClosed bound the two timed streams; a phase stops at its deadline and
// leaves the rest unsent.
func buildServed(name string, seed uint64, nOpen, nClosed int) (*workload, error) {
	g := newGen(seed, 1)
	w := &workload{name: name, nodes: 1}
	switch name {
	case wlServedHot:
		ranked := g.pool(hotPoolSize, hotMix)
		// Batches draw from the analytic slice of the pool, keeping its
		// popularity order: analytic hits rebind and re-encode each item,
		// the encode share of the hit path.
		var analytic []int
		for _, i := range ranked {
			if g.items[i].Backend == beAnalytic {
				analytic = append(analytic, i)
			}
		}
		zAll := newZipf(g.r, len(ranked))
		zBatch := newZipf(g.r, len(analytic))
		every := int(math.Round(1 / batchShareHot))
		draw := func() func(k int) request {
			return func(k int) request {
				if k%every == every-1 {
					its := make([]int, batchItems)
					for j := range its {
						its[j] = analytic[zBatch.next()]
					}
					return request{Items: its, Batch: true}
				}
				return request{Items: []int{ranked[zAll.next()]}}
			}
		}
		for _, i := range ranked {
			w.warm = append(w.warm, request{Items: []int{i}})
		}
		w.open = drawN(draw(), nOpen)
		w.closed = drawN(draw(), nClosed)
	case wlServedCold, wlClusterCold:
		// A fixed warm-up set touches every shape a few times on every
		// node, so set-up pays the same lazy initialisation on every seed.
		if name == wlClusterCold {
			// Hedging off: with every node on the one CPU a hedge cannot
			// win, it runs the solve a second time on that CPU. Hedged
			// DES reports then took 28-34 ms against 17 ms unhedged, and
			// the p99 fell on the boundary between the two and swung by
			// a quarter between runs. cluster_hot keeps the default.
			w.nodes, w.noHedge = 3, true
		}
		wg := newGen(1, 2)
		for k := 0; k < coldWarmPerShape*w.nodes; k++ {
			for _, sw := range coldMix {
				w.warm = append(w.warm, request{Items: []int{g.add(wg.envelope(sw.shape, true))}, Node: k % w.nodes})
			}
		}
		// On the ring the entry node is drawn, so about two thirds of the
		// requests enter at a node that is not the envelope's home and are
		// forwarded, carrying a cold solve.
		draw := func() func(int) request {
			rot := newRotation(coldMix)
			return func(int) request {
				r := request{Items: []int{g.add(g.envelope(rot.next(), true))}}
				if w.nodes > 1 {
					r.Node = g.r.IntN(w.nodes)
				}
				return r
			}
		}
		w.open = drawN(draw(), nOpen)
		w.closed = drawN(draw(), nClosed)
	case wlClusterHot:
		w.nodes = 3
		w.cache = clusterCache
		ranked := g.pool(clusterPool, clusterMix)
		for k, i := range ranked {
			w.warm = append(w.warm, request{Items: []int{i}, Node: k % 3})
		}
		draw := func(int) request {
			return request{Items: []int{ranked[g.r.IntN(len(ranked))]}, Node: g.r.IntN(3)}
		}
		w.open = drawN(draw, nOpen)
		w.closed = drawN(draw, nClosed)
	default:
		return nil, fmt.Errorf("perfbench: %q is not a served workload", name)
	}
	w.items = g.items
	return w, nil
}

// clusterCache is the per-node answer-cache capacity of cluster_hot: a
// third of the pool, so a node keeps most of the keys it is home to but
// few replicas, and most requests entering at a non-home node are
// forwarded.
const clusterCache = clusterPool / 3

func drawN(draw func(k int) request, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = draw(i)
	}
	return out
}
