// Benchmarks regenerating every table and figure in the paper (one
// BenchmarkFigureNN per artifact, reporting its headline number as a custom
// metric), micro-benchmarks of each substrate, and ablation benchmarks for
// the design choices called out in DESIGN.md §6.
//
// Run with: go test -bench=. -benchmem
package feasim_test

import (
	"context"
	"fmt"
	"testing"

	"feasim"
	"feasim/internal/benchgrid"
	"feasim/internal/core"
	"feasim/internal/des"
	"feasim/internal/experiment"
	"feasim/internal/pvm"
	"feasim/internal/rng"
	"feasim/internal/sim"
	"feasim/internal/stats"
)

// runExperiment executes one paper experiment per iteration and reports the
// value of its first check as a custom metric.
func runExperiment(b *testing.B, id string, metric string) {
	b.Helper()
	d, ok := experiment.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := experiment.TestConfig()
	var out experiment.Output
	var err error
	for i := 0; i < b.N; i++ {
		out, err = d.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(out.Checks) > 0 {
		b.ReportMetric(out.Checks[0].Got, metric)
	}
	for _, c := range out.Checks {
		if !c.Pass() {
			b.Errorf("%s: %s", id, c)
		}
	}
}

// ---- One benchmark per paper artifact ----

func BenchmarkFigure01Speedup(b *testing.B) { runExperiment(b, "fig01", "speedup@W100,u1%") }
func BenchmarkFigure02Efficiency(b *testing.B) {
	runExperiment(b, "fig02", "")
}
func BenchmarkFigure03WeightedSpeedup(b *testing.B) { runExperiment(b, "fig03", "") }
func BenchmarkFigure04WeightedEfficiency(b *testing.B) {
	runExperiment(b, "fig04", "weff@W100,u1%")
}
func BenchmarkFigure05WeightedSpeedupBig(b *testing.B) { runExperiment(b, "fig05", "") }
func BenchmarkFigure06WeightedEfficiencyBig(b *testing.B) {
	runExperiment(b, "fig06", "10Kbeats1K")
}
func BenchmarkFigure07TaskRatio(b *testing.B)        { runExperiment(b, "fig07", "") }
func BenchmarkFigure08TaskRatioSystems(b *testing.B) { runExperiment(b, "fig08", "smallWbeatsBig") }
func BenchmarkFigure09Scaled(b *testing.B)           { runExperiment(b, "fig09", "increase@W100,u1%") }
func BenchmarkFigure10PVMResponse(b *testing.B)      { runExperiment(b, "fig10", "maxtask@1min,W12") }
func BenchmarkFigure11PVMSpeedup(b *testing.B)       { runExperiment(b, "fig11", "ordering") }
func BenchmarkSimValidation(b *testing.B)            { runExperiment(b, "simval", "coverage") }
func BenchmarkThresholdTable(b *testing.B)           { runExperiment(b, "thresholds", "ratio@u5%") }

// ---- Substrate micro-benchmarks ----

func BenchmarkAnalyze(b *testing.B) {
	p, err := feasim.ParamsFromUtilization(1000, 100, 10, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := feasim.Analyze(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeLargeT(b *testing.B) {
	// Scaled-problem regime: T = 100k units per task.
	p, err := feasim.ParamsFromUtilization(1e7, 100, 10, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := feasim.Analyze(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinomialExpectedMax(b *testing.B) {
	bin := core.Binomial{N: 1000, P: 0.01}
	for i := 0; i < b.N; i++ {
		_ = bin.ExpectedMaxOfIID(100)
	}
}

func BenchmarkThresholdSolve(b *testing.B) {
	q := core.ThresholdQuery{W: 60, O: 10, Util: 0.1, TargetWeightedEff: 0.8}
	for i := 0; i < b.N; i++ {
		if _, err := q.MinTaskRatio(1 << 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactSimSample draws one exact-sim job execution per op: at
// W = 100, util 0.2, and at the served operating point (J 1000, W 10, O 10,
// util 0.1) that the exact-backend answers of the service run at.
func BenchmarkExactSimSample(b *testing.B) {
	for _, c := range []struct {
		name string
		w    int
		util float64
	}{
		{"W100_util0.2", 100, 0.2},
		{"served", 10, 0.1},
	} {
		b.Run(c.name, func(b *testing.B) {
			p, err := feasim.ParamsFromUtilization(1000, c.w, 10, c.util)
			if err != nil {
				b.Fatal(err)
			}
			x, err := sim.NewExact(p, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = x.Sample()
			}
		})
	}
}

func BenchmarkGeneralSimJob(b *testing.B) {
	cfg := sim.HomogeneousGeometric(12, 100, 10, 1.0/90)
	cfg.Seed = 3
	g, err := sim.NewGeneral(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Run(10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDESEventThroughput(b *testing.B) {
	// Events executed per benchmark op: two processes ping-ponging holds.
	e := des.NewEngine()
	defer e.Close()
	stop := false
	for p := 0; p < 4; p++ {
		e.Spawn(fmt.Sprintf("p%d", p), func(pr *des.Proc) {
			for !stop {
				pr.Hold(1)
			}
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.StopTimer()
	stop = true
	e.RunUntil(e.Now() + 2) // let the loops observe stop and drain
}

func BenchmarkDESPreemptiveServer(b *testing.B) {
	e := des.NewEngine()
	defer e.Close()
	s := e.NewPreemptiveServer("cpu")
	stop := false
	e.Spawn("task", func(p *des.Proc) {
		for !stop {
			s.Use(p, 5, 0)
		}
	})
	e.Spawn("owner", func(p *des.Proc) {
		for !stop {
			p.Hold(2)
			s.Use(p, 1, 1)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.StopTimer()
	stop = true
	e.RunUntil(e.Now() + 20)
}

func BenchmarkPVMPingPongInProc(b *testing.B) { benchPingPong(b, pvm.InProc) }
func BenchmarkPVMPingPongTCP(b *testing.B)    { benchPingPong(b, pvm.TCP) }

func benchPingPong(b *testing.B, kind pvm.TransportKind) {
	vm, err := pvm.NewVM(pvm.Config{Hosts: 2, Transport: kind})
	if err != nil {
		b.Fatal(err)
	}
	defer vm.Halt()
	echo, err := vm.Spawn("echo", 1, 0, func(t *pvm.Task) error {
		for {
			m, err := t.Recv(pvm.AnyTID, 1)
			if err != nil {
				return nil // halt
			}
			if err := t.Send(m.Src, 2, m.Body); err != nil {
				return err
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	b.ResetTimer()
	_, err = vm.Spawn("driver", 0, 0, func(t *pvm.Task) error {
		buf := pvm.NewBuffer().PackInt64(42)
		for i := 0; i < b.N; i++ {
			if err := t.Send(echo, 1, buf); err != nil {
				return err
			}
			if _, err := t.Recv(echo, 2); err != nil {
				return err
			}
		}
		done <- nil
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	// bytes per op: one frame each way.
	b.SetBytes(2 * (4 + 12 + 9))
}

func BenchmarkStationRunTask(b *testing.B) {
	params, err := feasim.SunELCParams(10, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	c, err := feasim.NewCluster(1, params, 5)
	if err != nil {
		b.Fatal(err)
	}
	st, err := c.Station(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.RunTask(1000)
	}
}

func BenchmarkBatchMeansAdd(b *testing.B) {
	bm := stats.NewBatchMeans(1000)
	s := rng.NewStream(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Add(s.Float64())
	}
}

// runSweepBench measures points/s for one canonical grid at one pool size.
func runSweepBench(b *testing.B, spec feasim.SweepSpec, workers int) {
	b.Helper()
	spec.Workers = workers
	for i := 0; i < b.N; i++ {
		res, err := feasim.CollectSweep(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != benchgrid.Points {
			b.Fatalf("got %d points, want %d", len(res), benchgrid.Points)
		}
	}
	b.ReportMetric(float64(benchgrid.Points*b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkSweep measures the parallel sweep engine on the canonical grids
// of internal/benchgrid (shared with `feasim bench`, so BENCH_*.json tracks
// the same workloads). The plain grid isolates the engine's fan-out,
// seed-splitting and channel overhead; the fixedTP grid holds (T, P)
// constant at T=10^5 so every point shares one binomial table per
// utilization through the process-wide kernel memo — before the table
// cache, each of those points rebuilt its own O(T) kernel.
func BenchmarkSweep(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			runSweepBench(b, benchgrid.AnalyticGrid(), workers)
		})
	}
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("fixedTP/workers=%d", workers), func(b *testing.B) {
			runSweepBench(b, benchgrid.FixedTPGrid(), workers)
		})
	}
}

// BenchmarkFrontier measures the adaptive frontier engine on the canonical
// benchgrid workload (shared with `feasim bench`, so BENCH_9.json's
// sweep_frontier row tracks the same refinement): boundary search to
// resolution 32, reported as cells/s plus dense_per_probe — the probe-count
// saving over the equivalent dense grid.
func BenchmarkFrontier(b *testing.B) {
	b.Run("res=32", benchgrid.FrontierBench())
}

// BenchmarkServedQuery measures the HTTP query service end to end on an
// empirical (exact-sim) threshold bisection — decode, dispatch, solve,
// encode — via the canonical benchgrid served-query pair (shared with
// `feasim bench`, so BENCH_9.json tracks the same workload). The cold path
// varies the seed every iteration so every request misses the cache and
// runs a fresh warm-started bisection; the hit path repeats one envelope,
// so after the first request everything is served from the answer LRU. The
// gap between the two is the cache's value under the heavy-traffic hot
// case.
func BenchmarkServedQuery(b *testing.B) {
	b.Run("cold", benchgrid.ServedQueryBench(false))
	b.Run("hit", benchgrid.ServedQueryBench(true))
}

// BenchmarkServedBatch measures the batched hot path via the canonical
// benchgrid batch (shared with `feasim bench`, so BENCH_9.json tracks the
// same workload): 64 mixed envelopes per /v1/batch request, all served from
// the answer LRU after the warm request, reported as envelopes/s. The
// acceptance bar is per-envelope throughput ≥ 5× served_query_hit's request
// rate — one round trip and one pooled response encode amortized over the
// whole batch.
func BenchmarkServedBatch(b *testing.B) {
	b.Run(fmt.Sprintf("hit%d", benchgrid.ServedBatchSize), benchgrid.ServedBatchBench())
}

// BenchmarkTimelineQuasiStatic measures the analytic timeline path on the
// canonical 3-phase workday (shared with `feasim bench`, so BENCH_9.json's
// timeline_quasistatic row tracks the same workload): 24 epoch answers per
// query, each a quasi-static walk whose stationary kernel evaluations share
// the process-wide binomial-table memo.
func BenchmarkTimelineQuasiStatic(b *testing.B) {
	b.Run(fmt.Sprintf("epochs=%d", benchgrid.TimelineEpochCount), benchgrid.TimelineQuasiStaticBench())
}

// BenchmarkAnswerCacheHit measures the answer cache's hot path over a
// resident 256-key working set: the single-mutex layout (shards=1, the
// pre-sharding baseline) against the deployed layout (shards sized to
// GOMAXPROCS — exactly one shard on a 1-CPU host, so the default never pays
// the shard hash where it cannot shed contention) and a pinned 16-shard
// layout that records the hash tax and the contention relief explicitly.
func BenchmarkAnswerCacheHit(b *testing.B) {
	for _, cfg := range []struct {
		name        string
		shards, par int
	}{
		{"mutex/p1", 1, 1},
		{"sharded/p1", 0, 1},
		{"mutex/p8", 1, 8},
		{"sharded/p8", 0, 8},
		{"sharded16/p1", 16, 1},
		{"sharded16/p8", 16, 8},
	} {
		b.Run(cfg.name, benchgrid.CacheHitContentionBench(cfg.shards, cfg.par))
	}
}

// BenchmarkQueryThresholdSweep measures the typed query path on the
// canonical threshold grid of internal/benchgrid (shared with `feasim
// bench`, so BENCH_9.json tracks the same workload): 40 analytic threshold
// bisections per op, reported as full searches per second.
func BenchmarkQueryThresholdSweep(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			spec := benchgrid.ThresholdGrid()
			spec.Workers = workers
			for i := 0; i < b.N; i++ {
				res, err := feasim.CollectQuerySweep(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != benchgrid.ThresholdPoints {
					b.Fatalf("got %d points, want %d", len(res), benchgrid.ThresholdPoints)
				}
				for _, r := range res {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			b.ReportMetric(float64(benchgrid.ThresholdPoints*b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// ---- Ablation benchmarks (DESIGN.md §6) ----

// BenchmarkAblationOwnerVariance quantifies the paper's optimism point 2:
// deterministic owner demands versus hyperexponential demands with CV²=16
// and the same mean. Reports mean job time for each.
func BenchmarkAblationOwnerVariance(b *testing.B) {
	mean := func(demand rng.Dist) float64 {
		cfg := sim.HomogeneousGeometric(12, 100, 10, 1.0/90)
		for i := range cfg.Stations {
			cfg.Stations[i].OwnerDemand = demand
		}
		cfg.Seed = 11
		g, err := sim.NewGeneral(cfg)
		if err != nil {
			b.Fatal(err)
		}
		st, err := g.Run(300)
		if err != nil {
			b.Fatal(err)
		}
		var s stats.Summary
		for _, x := range st.Samples {
			s.Add(x.JobTime)
		}
		return s.Mean()
	}
	var det, hyper float64
	for i := 0; i < b.N; i++ {
		det = mean(rng.Deterministic{V: 10})
		hyper = mean(rng.BalancedHyperExp(10, 16))
	}
	b.ReportMetric(det, "jobtime-det")
	b.ReportMetric(hyper, "jobtime-hyperCV16")
	if hyper <= det {
		b.Errorf("high-variance owners should slow the job: det %.2f, hyper %.2f", det, hyper)
	}
}

// BenchmarkAblationImbalance quantifies optimism point 1: deterministic
// task demands versus uniform demands with the same mean.
func BenchmarkAblationImbalance(b *testing.B) {
	mean := func(task rng.Dist) float64 {
		cfg := sim.HomogeneousGeometric(12, 100, 10, 1.0/90)
		cfg.TaskDemand = task
		cfg.Seed = 13
		g, err := sim.NewGeneral(cfg)
		if err != nil {
			b.Fatal(err)
		}
		st, err := g.Run(300)
		if err != nil {
			b.Fatal(err)
		}
		var s stats.Summary
		for _, x := range st.Samples {
			s.Add(x.JobTime)
		}
		return s.Mean()
	}
	var det, unif float64
	for i := 0; i < b.N; i++ {
		det = mean(rng.Deterministic{V: 100})
		unif = mean(rng.Uniform{Lo: 50, Hi: 150})
	}
	b.ReportMetric(det, "jobtime-balanced")
	b.ReportMetric(unif, "jobtime-imbalanced")
	if unif <= det {
		b.Errorf("imbalance should slow the job: det %.2f, unif %.2f", det, unif)
	}
}

// BenchmarkAblationNoGuarantee quantifies optimism point 3: the exact model
// guarantees one unit of task progress between owner bursts, the general
// (wall-clock) model does not. Reports both job-time means; the general
// model should be the slower one.
func BenchmarkAblationNoGuarantee(b *testing.B) {
	p, err := feasim.ParamsFromUtilization(1200, 12, 10, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	var exactMean, generalMean float64
	for i := 0; i < b.N; i++ {
		x, err := sim.NewExact(p, 17)
		if err != nil {
			b.Fatal(err)
		}
		var xs stats.Summary
		for j := 0; j < 2000; j++ {
			xs.Add(x.Sample().JobTime)
		}
		exactMean = xs.Mean()

		cfg := sim.HomogeneousGeometric(12, 100, 10, p.P)
		cfg.Seed = 17
		g, err := sim.NewGeneral(cfg)
		if err != nil {
			b.Fatal(err)
		}
		st, err := g.Run(400)
		if err != nil {
			b.Fatal(err)
		}
		var gs stats.Summary
		for _, s := range st.Samples {
			gs.Add(s.JobTime)
		}
		generalMean = gs.Mean()
	}
	b.ReportMetric(exactMean, "jobtime-guaranteed")
	b.ReportMetric(generalMean, "jobtime-wallclock")
}

// BenchmarkAblationMigration quantifies the Section 5 extension: task
// migration under a heavy-tailed (long-running) owner job on one station.
func BenchmarkAblationMigration(b *testing.B) {
	mk := func(seed uint64) *feasim.Cluster {
		hog := feasim.StationParams{
			OwnerThink:  feasim.Exponential{M: 100},
			OwnerDemand: feasim.Pareto{Xm: 20, A: 1.5}, // long-running owner jobs
		}
		quiet, err := feasim.SunELCParams(10, 0.02)
		if err != nil {
			b.Fatal(err)
		}
		c, err := feasim.NewHeterogeneousCluster(
			[]feasim.StationParams{hog, quiet, quiet}, seed)
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	m := feasim.Migrator{InterferenceBudget: 0.3, TransferCost: 10, MaxMigrations: 2}
	var with, without stats.Summary
	for i := 0; i < b.N; i++ {
		for r := 0; r < 50; r++ {
			cm := mk(uint64(1000 + r))
			rec, err := m.RunTask(cm, 0, 500)
			if err != nil {
				b.Fatal(err)
			}
			with.Add(rec.Elapsed)
			cs := mk(uint64(1000 + r))
			st, err := cs.Station(0)
			if err != nil {
				b.Fatal(err)
			}
			without.Add(st.RunTask(500).Elapsed)
		}
	}
	b.ReportMetric(with.Mean(), "tasktime-migrate")
	b.ReportMetric(without.Mean(), "tasktime-stay")
	if with.Mean() >= without.Mean() {
		b.Errorf("migration should beat staying under a hog: %.1f vs %.1f", with.Mean(), without.Mean())
	}
}

// BenchmarkAblationTrialsConvention compares the rounded-trials convention
// (used by the figures) against floor/ceil interpolation for non-integral
// T, reporting the largest E_j disagreement across a W sweep.
func BenchmarkAblationTrialsConvention(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for w := 1; w <= 100; w++ {
			p, err := feasim.ParamsFromUtilization(1000, w, 10, 0.1)
			if err != nil {
				b.Fatal(err)
			}
			r1, err := core.Analyze(p)
			if err != nil {
				b.Fatal(err)
			}
			r2, err := core.AnalyzeInterpolated(p)
			if err != nil {
				b.Fatal(err)
			}
			rel := (r1.EJob - r2.EJob) / r2.EJob
			if rel < 0 {
				rel = -rel
			}
			if rel > worst {
				worst = rel
			}
		}
	}
	b.ReportMetric(worst*100, "maxdisagreement-%")
}

// ---- Extension experiments as benchmarks ----

func BenchmarkExtension01OwnerVariance(b *testing.B) {
	runExperiment(b, "ext01", "monotoneInCV2")
}

func BenchmarkExtension02MultiJob(b *testing.B) {
	runExperiment(b, "ext02", "response@K1")
}

// BenchmarkAblationGumbel compares the O(1) extreme-value approximation of
// E[max] against the exact O(T) computation across the scaled-problem
// regime, reporting the worst relative E_j error and the speedup factor.
func BenchmarkAblationGumbel(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, w := range []int{8, 20, 60, 100} {
			p, err := feasim.ParamsFromUtilization(1e5*float64(w), w, 10, 0.1)
			if err != nil {
				b.Fatal(err)
			}
			exact, err := core.Analyze(p)
			if err != nil {
				b.Fatal(err)
			}
			approx, err := core.AnalyzeGumbel(p)
			if err != nil {
				b.Fatal(err)
			}
			rel := (approx.EJob - exact.EJob) / exact.EJob
			if rel < 0 {
				rel = -rel
			}
			if rel > worst {
				worst = rel
			}
		}
	}
	b.ReportMetric(worst*100, "worstErr-%")
}

func BenchmarkExtension03Heterogeneity(b *testing.B) {
	runExperiment(b, "ext03", "monotoneInSpread")
}
