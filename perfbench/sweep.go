package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"feasim/internal/core"
	"feasim/internal/solve"
)

// sweepJob is one offline request of sweep_batch: a dense threshold grid or
// an adaptive frontier.
type sweepJob struct {
	shape string
	grid  solve.QuerySweepSpec
	front solve.FrontierSpec
}

// The sweep_batch job mix. The median job is a homogeneous frontier (the
// fast grids and timeline frontiers are 35% of jobs, the frontiers the next
// 40%), so p50_ms sits inside one shape's spread of times. With 50% fast
// jobs it sat on the gap between the fast jobs (about 0.8 ms) and the
// frontiers (about 1.2 ms) and jumped between the two from run to run.
var sweepMix = []shapeWeight{
	{"grid", 0.25}, {"fleet_grid", 0.15}, {"frontier", 0.40},
	{"fleet_frontier", 0.10}, {"timeline_frontier", 0.10},
}

// sweepPeriod is the length of sweepMix's rotation: every run of this many
// consecutive jobs holds each shape in proportion to its weight.
const sweepPeriod = 20

// buildSweepJobs draws n jobs from the seed. Utilizations keep every digit,
// so the (N, P) kernel keys of a run far exceed the core.Tables memo and
// builds and memo hits both occur; within a job, its searches share keys.
func buildSweepJobs(seed uint64, n int) []sweepJob {
	g := newGen(seed, 4)
	workers := runtime.NumCPU()
	jobs := make([]sweepJob, n)
	rot := newRotation(sweepMix)
	for k := range jobs {
		shape := rot.next()
		job := sweepJob{shape: shape}
		switch shape {
		case "grid":
			ws := make([]int, 8)
			for i := range ws {
				ws[i] = g.intn(4, 128)
			}
			utils := make([]float64, 6)
			for i := range utils {
				utils[i] = g.uniform(0.01, 0.2, true)
			}
			job.grid = solve.QuerySweepSpec{
				Base:    solve.ThresholdQuery{O: 10, TargetEff: []float64{0.7, 0.8, 0.9}[g.r.IntN(3)]},
				W:       ws,
				Util:    utils,
				Workers: workers,
				Seed:    g.r.Uint64() >> 1,
			}
		case "fleet_grid":
			job.grid = solve.QuerySweepSpec{
				Base: solve.ThresholdQuery{O: 10, TargetEff: 0.7, Stations: []solve.StationSpec{
					{P: g.uniform(0.01, 0.04, true), Count: 1},
					{Util: g.uniform(0.02, 0.08, true), Count: 1},
				}},
				W:       []int{g.intn(6, 12), g.intn(13, 24), g.intn(25, 40)},
				Spread:  []float64{0.5, 1},
				Workers: workers,
				Seed:    g.r.Uint64() >> 1,
			}
		case "frontier":
			job.front = solve.FrontierSpec{
				Base: solve.ReportQuery{Scenario: solve.Scenario{
					J: 2000, W: g.intn(10, 40), O: 10, Util: 0.1, TargetEff: 0.8,
				}},
				X:      solve.FrontierAxis{Axis: solve.FrontierAxisUtil, Min: g.uniform(0.01, 0.03, true), Max: g.uniform(0.15, 0.25, true)},
				Y:      solve.FrontierAxis{Axis: solve.FrontierAxisRatio, Min: 1, Max: g.uniform(30, 60, true)},
				Coarse: 4, Depth: 2, Workers: workers, Seed: g.r.Uint64() >> 1,
			}
		case "fleet_frontier":
			job.front = solve.FrontierSpec{
				Base: solve.ReportQuery{Scenario: solve.Scenario{
					J: 2000, W: 8, O: 10, TargetEff: 0.8, Stations: []solve.StationSpec{
						{P: g.uniform(0.01, 0.04, true), Count: 2},
						{Util: g.uniform(0.02, 0.08, true), Count: 3},
						{P: g.uniform(0.01, 0.03, true), Speed: 2, Count: 3},
					},
				}},
				X:      solve.FrontierAxis{Axis: solve.FrontierAxisSpread, Min: 0, Max: 1},
				Y:      solve.FrontierAxis{Axis: solve.FrontierAxisRatio, Min: 1, Max: g.uniform(30, 60, true)},
				Coarse: 2, Depth: 2, Workers: workers, Seed: g.r.Uint64() >> 1,
			}
		case "timeline_frontier":
			job.front = solve.FrontierSpec{
				Base: solve.TimelineQuery{Scenario: solve.Scenario{
					J: 400, W: 4, O: 10, TargetEff: 0.5, Schedule: []solve.PhaseSpec{
						{Name: "morning", Duration: 480, Util: g.uniform(0.05, 0.2, true)},
						{Name: "afternoon", Duration: 480, Util: g.uniform(0.2, 0.4, true)},
						{Name: "night", Duration: 480, Util: g.uniform(0.01, 0.05, true)},
					},
				}, Epochs: timelineEpochs},
				X:      solve.FrontierAxis{Axis: solve.FrontierAxisUtil, Min: 0.02, Max: g.uniform(0.1, 0.12, true)},
				Y:      solve.FrontierAxis{Axis: solve.FrontierAxisRatio, Min: 1, Max: g.uniform(30, 60, true)},
				Coarse: 4, Depth: 2, Workers: workers, Seed: g.r.Uint64() >> 1,
			}
		}
		jobs[k] = job
	}
	return jobs
}

// jobResult is one completed sweep job.
type jobResult struct {
	job      int
	wall     time.Duration
	points   int // grid points or frontier corner evaluations answered
	failed   int // points or cells that carried an error
	firstErr error
	stats    solve.FrontierStats
	grid     []solve.QueryResult
	cells    []solve.FrontierCell
	probeNS  int64  // union of the frontier probe spans (traced run)
	probes   []span // the frontier probe spans (traced run)
	deduped  int    // points the engine's dedup cache answered
}

// runSweepJob runs one job through the library's sweep engine. A non-nil
// rec routes frontier probes through the span-recording solver.
func runSweepJob(ctx context.Context, job sweepJob, rec *recorder) (jobResult, error) {
	var r jobResult
	start := time.Now()
	if job.front.Base == nil {
		res, err := solve.CollectQueries(ctx, job.grid)
		if err != nil {
			return r, err
		}
		r.wall = time.Since(start)
		r.grid = res
		r.points = len(res)
		for _, q := range res {
			if q.Err != nil {
				r.failed++
				r.firstErr = q.Err
			}
			if q.Cached {
				r.deduped++
			}
		}
		return r, nil
	}
	var sv solve.Solver = solve.Analytic{}
	var jobSpan span
	if rec != nil {
		jobSpan = span{ID: rec.nextID.Add(1), Name: "solve.frontier", Start: rec.now()}
		ctx = context.WithValue(ctx, spanKey{}, spanCtx{id: jobSpan.ID})
		sv = tracedSolver{Solver: sv, rec: rec}
	}
	ch, stats, err := solve.SweepFrontierSolver(ctx, job.front, sv)
	if err != nil {
		return r, err
	}
	for c := range ch {
		if c.Err != nil {
			r.failed++
			r.firstErr = c.Err
		}
		r.cells = append(r.cells, c)
	}
	r.wall = time.Since(start)
	if rec != nil {
		jobSpan.End = rec.now()
		var kids []span
		for _, s := range rec.take() {
			if s.Parent == jobSpan.ID {
				kids = append(kids, s)
			}
		}
		r.probeNS = jobSpan.dur() - selfNS(jobSpan, kids)
		r.probes = kids
	}
	r.stats = stats()
	r.points = r.stats.Evaluations
	r.deduped = r.stats.CacheHits
	return r, nil
}

// sweepSampleEvery sets the oracle's sampling rate: one grid point or
// frontier cell in this many is recomputed by a direct library call.
const sweepSampleEvery = 16

// verifySweepJob recomputes a seeded sample of the job's points through a
// direct solve.Analytic call: grid answers must be byte-equal after the
// elapsed stamps are scrubbed, and a sampled homogeneous frontier cell's
// verdict must match its four corners.
func verifySweepJob(seed uint64, job sweepJob, r jobResult) error {
	pick := rand.New(rand.NewPCG(seed, uint64(r.job)))
	ctx := context.Background()
	for _, q := range r.grid {
		if pick.IntN(sweepSampleEvery) != 0 {
			continue
		}
		a, err := solve.Analytic{}.Answer(ctx, q.Point.Query)
		if err != nil {
			return fmt.Errorf("grid point %d: %w", q.Point.Index, err)
		}
		want, err := canonicalOf(a)
		if err != nil {
			return err
		}
		got, err := canonicalOf(q.Answer)
		if err != nil {
			return err
		}
		if string(got) != string(want) {
			return fmt.Errorf("grid point %d: sweep answer %s, direct answer %s", q.Point.Index, got, want)
		}
	}
	base, ok := job.front.Base.(solve.ReportQuery)
	if !ok || base.Scenario.Heterogeneous() {
		return nil
	}
	for _, c := range r.cells {
		if pick.IntN(sweepSampleEvery/4) != 0 {
			continue
		}
		feasible := 0
		for _, xy := range [4][2]float64{{c.X0, c.Y0}, {c.X1, c.Y0}, {c.X0, c.Y1}, {c.X1, c.Y1}} {
			sc := base.Scenario
			sc.Util, sc.P = xy[0], 0
			sc.J = xy[1] * sc.O * float64(sc.W)
			a, err := solve.Analytic{}.Answer(ctx, solve.ReportQuery{Scenario: sc})
			if err != nil {
				return fmt.Errorf("frontier corner (%v, %v): %w", xy[0], xy[1], err)
			}
			if f := a.(solve.ReportAnswer).Report.Feasible; f != nil && *f {
				feasible++
			}
		}
		want := solve.FrontierBoundary
		switch feasible {
		case 4:
			want = solve.FrontierFeasible
		case 0:
			want = solve.FrontierInfeasible
		}
		if c.Verdict != want {
			return fmt.Errorf("frontier cell (%v..%v, %v..%v): verdict %s, corners say %s", c.X0, c.X1, c.Y0, c.Y1, c.Verdict, want)
		}
	}
	return nil
}

func canonicalOf(a solve.Answer) ([]byte, error) {
	raw, err := json.Marshal(a)
	if err != nil {
		return nil, err
	}
	return canonical(raw)
}

// memoCounters snapshots the kernel memo counters of this process.
type memoCounters struct{ th, tm, ph, pm uint64 }

func readMemo() memoCounters {
	var m memoCounters
	m.th, m.tm = core.TablesCacheStats()
	m.ph, m.pm = core.PoissonBinomialCacheStats()
	return m
}

func (m memoCounters) sub(o memoCounters) memoCounters {
	return memoCounters{m.th - o.th, m.tm - o.tm, m.ph - o.ph, m.pm - o.pm}
}
