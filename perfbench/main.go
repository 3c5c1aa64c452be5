// Command perfbench is feasim's benchmark: a seeded load generator and
// answer oracle that drives live internal/serve nodes (one node, or a
// three-node ring) and the internal/solve sweep engine, and prints every
// end-to-end and per-layer metric by name with its unit.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload served_cold --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured with no span wrappers
// installed; --trace 1 runs the same workload untraced and then traced, and
// prints the per-layer split. The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}. See README.md for the
// workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"}, {"p50_ms", "ms"}, {"p99_ms", "ms"},
	{"capacity_qps", "req/s"}, {"points_per_s", "points/s"}, {"rss_mb", "MiB"},
}

// perLayer is printed on every workload; a layer the workload does not load
// reads 0 there (see zero).
var perLayer = []metricDef{
	{"transport.self_us", "us"},
	{"serve.query_self_us", "us"}, {"serve.batch_self_us", "us"},
	{"serve.rejected", "count"}, {"serve.waiting_max", "count"},
	{"solve.parse_us", "us"}, {"solve.cache_lookup_us", "us"},
	{"solve.cache_hit_ratio", "ratio"}, {"solve.cache_evictions", "count"}, {"solve.coalesced", "count"},
	{"solve.miss_us.analytic.report", "us"}, {"solve.miss_us.analytic.threshold", "us"},
	{"solve.miss_us.analytic.timeline", "us"}, {"solve.miss_us.exact.report", "us"},
	{"solve.miss_us.exact.threshold", "us"}, {"solve.miss_us.exact.distribution", "us"},
	{"solve.miss_us.des.report", "us"},
	{"solve.share.analytic", "ratio"}, {"solve.share.exact", "ratio"}, {"solve.share.des", "ratio"},
	{"solve.sweep_point_us", "us"}, {"solve.frontier_evals", "count"},
	{"solve.frontier_dense_per_probe", "ratio"}, {"solve.frontier_self_us", "us"},
	{"core.tables_hit_ratio", "ratio"}, {"core.tables_build_us", "us"},
	{"core.pb_hit_ratio", "ratio"}, {"core.pb_build_us", "us"}, {"core.analyze_fleet_us", "us"},
	{"sim.exact_sample_us", "us"}, {"des.job_us", "us"},
	{"peer.forward_us", "us"}, {"peer.forward_share", "ratio"}, {"peer.replica_hit_ratio", "ratio"},
	{"peer.hedges", "count"}, {"peer.hedge_win_ratio", "ratio"}, {"peer.retries", "count"},
	{"timeline.answer_us", "us"},
	{"loadgen.late_p99_ms", "ms"}, {"loadgen.client_cpu_s", "s"}, {"loadgen.server_cpu_s", "s"},
	{"loadgen.samples", "count"}, {"loadgen.queue_us", "us"},
	{"trace.overhead_pct", "%"}, {"trace.layer_residual_pct", "%"},
	{"input.hit_share", "ratio"}, {"input.distinct_share", "ratio"},
}

// phaseCount is the operation tally of one phase.
type phaseCount struct {
	name              string
	attempted, failed int
	first             error
}

// report collects one run's measurements.
type report struct {
	values map[string]float64
	phases []phaseCount
	notes  []string
	refErr error
	// layerErr is a failed layer-sum check of a traced served run.
	layerErr error
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errInvalid marks a run whose load generator fell behind its schedule.
type errInvalid struct{ late time.Duration }

func (e errInvalid) Error() string {
	return fmt.Sprintf("run invalid: the load generator ran %v late at p99 (bound %v)", e.late, lateBound)
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "node":
			if err := runNode(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench node:", err)
				os.Exit(1)
			}
			return
		case "warm-sweep":
			if err := warmSweep(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench warm-sweep:", err)
				os.Exit(1)
			}
			fmt.Println("ready")
			return
		case "refgen":
			if err := refgen(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench refgen:", err)
				os.Exit(1)
			}
			return
		}
	}
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: report the per-layer split from a traced run")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	var rep *report
	var err error
	switch *workload {
	case wlServedHot, wlServedCold, wlClusterHot, wlClusterCold:
		rep, err = runServed(*workload, *seed, d, *trace == 1)
	case wlSweepBatch:
		rep, err = runSweep(*seed, d, *trace == 1)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	out := output{Correct: rep.refErr == nil, Metrics: map[string]metric{}}
	fmt.Printf("workload %s seed %d seconds %d trace %d nproc %d\n", *workload, *seed, *seconds, *trace, runtime.NumCPU())
	for _, p := range rep.phases {
		fmt.Printf("phase %-14s attempted %6d succeeded %6d failed %d (%.4f%%)\n",
			p.name, p.attempted, p.attempted-p.failed, p.failed, 100*float64(p.failed)/float64(max(p.attempted, 1)))
		if p.first != nil {
			fmt.Printf("  first failure: %v\n", p.first)
		}
		out.Attempted += p.attempted
		out.Failed += p.failed
	}
	if out.Failed > 0 {
		out.Correct = false
	}
	if rep.refErr != nil {
		fmt.Printf("analytic reference check FAILED: %v\n", rep.refErr)
	}
	if rep.layerErr != nil {
		out.Correct = false
		fmt.Printf("layer-sum check FAILED: %v\n", rep.layerErr)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, m := range defs {
		v, ok := rep.values[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", m.name)
			os.Exit(1)
		}
		fmt.Printf("%-34s %14.6g %s\n", m.name, v, m.unit)
		out.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if out.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		os.Exit(1)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// refgen prints the pinned analytic reference: the library's answer to
// each reference envelope.
func refgen() error {
	o, err := newOracle()
	if err != nil {
		return err
	}
	envs, err := refEnvelopes()
	if err != nil {
		return err
	}
	cases := make([]refCase, len(envs))
	for i, env := range envs {
		a, err := o.answer(beAnalytic, env)
		if err != nil {
			return err
		}
		cases[i] = refCase{Env: env, Answer: a}
	}
	b, err := json.MarshalIndent(cases, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// Metrics a workload kind does not load. A runner zeroes them explicitly;
// any other metric it leaves unset fails the run.
var (
	// sweepMetrics come from the in-process sweep engine; a served workload
	// runs no sweeps.
	sweepMetrics = []string{"solve.sweep_point_us", "solve.frontier_evals",
		"solve.frontier_dense_per_probe", "solve.frontier_self_us"}
	// peerCounters are the ring's counters; a one-node workload has no ring.
	// (peer.forward_us is a span median, 0 with no forward spans.)
	peerCounters = []string{"peer.forward_share", "peer.replica_hit_ratio",
		"peer.hedges", "peer.hedge_win_ratio", "peer.retries"}
	// servedOnly need HTTP, a server process or an open loop; sweep_batch
	// has none of them.
	servedOnly = []string{"transport.self_us", "serve.query_self_us", "serve.batch_self_us",
		"serve.rejected", "serve.waiting_max", "solve.cache_hit_ratio", "solve.cache_evictions",
		"solve.coalesced", "solve.share.analytic", "solve.share.exact", "solve.share.des",
		"peer.forward_us", "loadgen.late_p99_ms", "loadgen.client_cpu_s", "loadgen.server_cpu_s",
		"loadgen.queue_us", "trace.layer_residual_pct"}
)

// zero records metrics the workload does not load: they read 0.
func (r *report) zero(names ...string) {
	for _, n := range names {
		r.values[n] = 0
	}
}

// setMissUS records every solve.miss_us.<backend>.<kind> metric: the median
// of its spans, 0 when the phase recorded none of that kind.
func (r *report) setMissUS(spansUS map[string][]float64) {
	for _, m := range perLayer {
		if strings.HasPrefix(m.name, "solve.miss_us.") {
			r.set(m.name, median(spansUS[m.name]))
		}
	}
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
