package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"

	"feasim/internal/core"
	"feasim/internal/sim"
	"feasim/internal/solve"
)

// replayBudget bounds the wall time of one replayed layer measurement.
const replayBudget = 150 * time.Millisecond

// medianCallUS times f in groups of inner calls until replayBudget or
// maxGroups groups and returns the median per-call time in µs. Grouping
// keeps the clock reads small next to sub-microsecond calls.
func medianCallUS(inner, maxGroups int, f func(i int) error) (float64, error) {
	var per []float64
	start := time.Now()
	i := 0
	for g := 0; g < maxGroups && (g < 3 || time.Since(start) < replayBudget); g++ {
		t := time.Now()
		for k := 0; k < inner; k++ {
			if err := f(i); err != nil {
				return 0, err
			}
			i++
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(inner)/1e3)
	}
	return median(per), nil
}

// replayed is one workload's replayed layer measurements, in µs per call.
type replayed struct {
	parseUS, lookupUS                   float64
	tablesBuildUS, pbBuildUS, fleetUS   float64
	exactSampleUS, desJobUS, timelineUS float64
}

// replayInput is what a replay needs from the workload: envelopes to parse
// and look up, with their answers, in canonical JSON.
type replayInput struct {
	backend []string
	env     [][]byte
	answer  [][]byte
}

// replay measures each layer through its public entry point, outside any
// server: solve.ParseQuery, CachedSolver.AnswerCachedEncoded hits,
// core.Tables and core.PoissonBinomial builds, core.AnalyzeFleet on a
// built kernel, sim.Exact.Sample at the exact-sim envelopes' parameters,
// sim.General.RunCtx at desScenario (the des.report envelopes' operating
// point), and the analytic timeline walker.
func replay(seed uint64, in replayInput) (replayed, error) {
	var out replayed
	var err error
	ctx := context.Background()
	n := len(in.env)
	if n == 0 {
		return out, fmt.Errorf("replay: no envelopes")
	}

	if out.parseUS, err = medianCallUS(16, 4096, func(i int) error {
		_, err := solve.ParseQuery(in.env[i%n])
		return err
	}); err != nil {
		return out, fmt.Errorf("replay parse: %w", err)
	}

	cache := solve.NewAnswerCache(0)
	cached := map[string]*solve.CachedSolver{}
	queries := make([]solve.Query, n)
	for i := range in.env {
		q, err := solve.ParseQuery(in.env[i])
		if err != nil {
			return out, err
		}
		a, err := solve.ParseAnswer(q.Kind(), in.answer[i])
		if err != nil {
			return out, fmt.Errorf("replay: answer of %s: %w", in.env[i], err)
		}
		cs := cached[in.backend[i]]
		if cs == nil {
			sv, err := solve.NewSolver(in.backend[i], serverOptions())
			if err != nil {
				return out, err
			}
			cs = solve.NewCachedSolver(sv, cache)
			cached[in.backend[i]] = cs
		}
		cs.StoreReplica(q, a)
		queries[i] = q
	}
	if out.lookupUS, err = medianCallUS(16, 4096, func(i int) error {
		_, _, hit, err := cached[in.backend[i%n]].AnswerCachedEncoded(ctx, queries[i%n])
		if err == nil && !hit {
			err = fmt.Errorf("replayed lookup of %s missed", in.env[i%n])
		}
		return err
	}); err != nil {
		return out, fmt.Errorf("replay lookup: %w", err)
	}

	// Kernel builds: every call uses a fresh p, so the memo always misses.
	g := newGen(seed, 5)
	ns := []int{100, 1000, 10000}
	if out.tablesBuildUS, err = medianCallUS(1, 2048, func(i int) error {
		core.Tables(ns[i%len(ns)], g.uniform(0.001, 0.02, true))
		return nil
	}); err != nil {
		return out, err
	}
	var fleets []core.Fleet
	if out.pbBuildUS, err = medianCallUS(1, 256, func(int) error {
		q, err := solve.ParseQuery(g.envelope("analytic.fleet", true).Env)
		if err != nil {
			return err
		}
		f, err := q.(solve.ReportQuery).Scenario.Fleet()
		if err != nil {
			return err
		}
		fleets = append(fleets, f)
		_, _, err = f.BurstTables()
		return err
	}); err != nil {
		return out, fmt.Errorf("replay pb build: %w", err)
	}
	if out.fleetUS, err = medianCallUS(1, 1024, func(i int) error {
		_, err := core.AnalyzeFleet(fleets[i%len(fleets)])
		return err
	}); err != nil {
		return out, fmt.Errorf("replay analyze fleet: %w", err)
	}

	// Simulation at the served exact-sim and DES parameters.
	p, err := core.ParamsFromUtilization(1000, 10, 10, 0.1)
	if err != nil {
		return out, err
	}
	x, err := sim.NewExact(p, seed)
	if err != nil {
		return out, err
	}
	if out.exactSampleUS, err = medianCallUS(8, 4096, func(int) error {
		x.Sample()
		return nil
	}); err != nil {
		return out, err
	}
	sc := desScenario
	sc.Seed = seed
	cfg, err := sc.GeneralConfig()
	if err != nil {
		return out, err
	}
	const desJobs = 50
	if out.desJobUS, err = medianCallUS(1, 64, func(i int) error {
		cfg.Seed = seed + uint64(i)
		gs, err := sim.NewGeneral(cfg)
		if err != nil {
			return err
		}
		_, err = gs.RunCtx(ctx, desJobs)
		return err
	}); err != nil {
		return out, fmt.Errorf("replay des: %w", err)
	}
	out.desJobUS /= desJobs

	var timelines []solve.Query
	for k := 0; k < 64; k++ {
		q, err := solve.ParseQuery(g.envelope("analytic.timeline", true).Env)
		if err != nil {
			return out, err
		}
		timelines = append(timelines, q)
	}
	if out.timelineUS, err = medianCallUS(1, 2048, func(i int) error {
		_, err := solve.Analytic{}.Answer(ctx, timelines[i%len(timelines)])
		return err
	}); err != nil {
		return out, fmt.Errorf("replay timeline: %w", err)
	}
	return out, nil
}

// replayInputOf collects up to 256 envelopes of a served workload that the
// oracle has answered.
func replayInputOf(o *oracle, items []item, idx []int) replayInput {
	var in replayInput
	for _, i := range idx {
		if len(in.env) == 256 {
			break
		}
		if a, ok := o.want[i]; ok {
			in.backend = append(in.backend, items[i].Backend)
			in.env = append(in.env, items[i].Env)
			in.answer = append(in.answer, a)
		}
	}
	return in
}

// addGrid adds sweep grid points and their answers, up to 256 in all.
func (in *replayInput) addGrid(grid []solve.QueryResult) error {
	for _, q := range grid {
		if len(in.env) == 256 {
			return nil
		}
		env, err := solve.MarshalQuery(q.Point.Query)
		if err != nil {
			return err
		}
		ans, err := json.Marshal(q.Answer)
		if err != nil {
			return err
		}
		in.backend = append(in.backend, beAnalytic)
		in.env = append(in.env, env)
		in.answer = append(in.answer, ans)
	}
	return nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// median of xs (xs is not modified).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs (xs is not modified); 0 for
// an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}
