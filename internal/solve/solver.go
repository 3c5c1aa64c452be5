package solve

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"feasim/internal/core"
	"feasim/internal/sim"
	"feasim/internal/stats"
)

// Backend names accepted by NewSolver and SweepSpec.Backends.
const (
	BackendAnalytic = "analytic"
	BackendExact    = "exact"
	BackendDES      = "des"
)

// Backends lists the backend names in canonical order.
func Backends() []string { return []string{BackendAnalytic, BackendExact, BackendDES} }

// Interval is a closed interval [Lo, Hi]. Simulation backends report one per
// metric; the analytic backend leaves them zero (its answers are exact).
// Unlike stats.CI it need not be symmetric around the point estimate, which
// matters for metrics obtained by monotone transforms of the job time.
type Interval struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// Contains reports whether x lies inside the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// Width is Hi - Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Zero reports whether the interval is the zero value (no CI available).
func (iv Interval) Zero() bool { return iv.Lo == 0 && iv.Hi == 0 }

// Widen returns the interval scaled about its midpoint by (1 + slack), the
// same convention as sim.ValidateAgainstAnalysis.
func (iv Interval) Widen(slack float64) Interval {
	mid := (iv.Lo + iv.Hi) / 2
	half := (iv.Hi - iv.Lo) / 2 * (1 + slack)
	return Interval{Lo: mid - half, Hi: mid + half}
}

func intervalFromCI(ci stats.CI) Interval { return Interval{Lo: ci.Lo(), Hi: ci.Hi()} }

// Report is the answer every backend returns for a ReportQuery. Point
// estimates are always filled; confidence intervals and sample counts only
// by the simulation backends (the analytic backend leaves them at the zero
// Interval — test with Interval.Zero); the feasibility block only when the
// scenario sets TargetEff; DeadlineProb only when it sets Deadline
// (analytic backend).
type Report struct {
	Scenario Scenario `json:"scenario"`
	Backend  string   `json:"backend"`

	W int     `json:"w"`
	U float64 `json:"u"` // owner utilization used by the weighted metrics

	EJob               float64 `json:"e_job"`
	ETask              float64 `json:"e_task"`
	TaskRatio          float64 `json:"task_ratio,omitempty"`
	Speedup            float64 `json:"speedup"`
	Efficiency         float64 `json:"efficiency"`
	WeightedEfficiency float64 `json:"weighted_efficiency"`

	EJobCI  Interval `json:"e_job_ci"`
	ETaskCI Interval `json:"e_task_ci"`
	// WeffCI is the weighted-efficiency interval induced by EJobCI (weighted
	// efficiency is a decreasing function of the job time, so the endpoints
	// swap).
	WeffCI       Interval `json:"weff_ci"`
	Samples      int64    `json:"samples,omitempty"`
	MetPrecision bool     `json:"met_precision,omitempty"`

	// Feasible is non-nil when the scenario sets TargetEff.
	Feasible *bool `json:"feasible,omitempty"`
	// MinRatio and MinJobDemand are the analytic backend's prescription for
	// an infeasible point: the threshold task ratio and the job demand that
	// reaches it. Both are absent when no task ratio reaches the target.
	MinRatio     int     `json:"min_ratio,omitempty"`
	MinJobDemand float64 `json:"min_job_demand,omitempty"`

	// DeadlineProb is non-nil when the scenario sets Deadline and the
	// backend can compute P(job time <= Deadline).
	DeadlineProb *float64 `json:"deadline_prob,omitempty"`

	Elapsed time.Duration `json:"elapsed_ns,omitempty"`
}

// setVerdict records a feasibility verdict and its prescription. core
// reports an unreachable target as MinJobDemand = +Inf, which JSON cannot
// encode, so such a verdict carries no prescription at all.
func (r *Report) setVerdict(feasible bool, minRatio int, minJobDemand float64) {
	r.Feasible = &feasible
	if !math.IsInf(minJobDemand, 1) {
		r.MinRatio, r.MinJobDemand = minRatio, minJobDemand
	}
}

// Solver answers typed queries. Implementations must honor ctx: a cancelled
// context makes Answer (and Solve) return ctx.Err() promptly. A query kind
// outside Capabilities is refused with an error satisfying
// errors.Is(err, ErrUnsupported).
type Solver interface {
	// Name is the backend name ("analytic", "exact", "des").
	Name() string
	// Capabilities lists the query kinds this backend answers.
	Capabilities() []string
	// Answer answers a typed query; the concrete Answer type matches the
	// query kind.
	Answer(ctx context.Context, q Query) (Answer, error)
	// Solve answers the scenario with a full report. It is the ReportQuery
	// fast path kept for compatibility: Solve(s) ≡ Answer(ReportQuery{s}).
	Solve(ctx context.Context, s Scenario) (Report, error)
}

// Options configures a backend built by NewSolver. The zero value means the
// paper's protocol and the default DES warmup.
type Options struct {
	// Protocol is the simulation output-analysis protocol (ignored by the
	// analytic backend); zero means sim.DefaultProtocol().
	Protocol sim.Protocol
	// Warmup is the DES backend's discarded-job warmup; negative disables,
	// zero means DefaultDESWarmup. Ignored by the other backends.
	Warmup int
}

// NewSolver builds the named backend with the given options.
func NewSolver(name string, opts Options) (Solver, error) {
	switch name {
	case BackendAnalytic:
		return Analytic{}, nil
	case BackendExact:
		return ExactSim{Protocol: opts.Protocol}, nil
	case BackendDES:
		return DES{Protocol: opts.Protocol, Warmup: opts.Warmup}, nil
	default:
		return nil, fmt.Errorf("solve: unknown backend %q (want %v)", name, Backends())
	}
}

// SolverFor builds the named backend. A zero protocol means
// sim.DefaultProtocol() for the simulation backends.
func SolverFor(name string, pr sim.Protocol) (Solver, error) {
	return NewSolver(name, Options{Protocol: pr})
}

// protocolOrDefault resolves a zero protocol to the paper's.
func protocolOrDefault(pr sim.Protocol) sim.Protocol {
	if pr == (sim.Protocol{}) {
		return sim.DefaultProtocol()
	}
	return pr
}

// weightedEff computes J/((1-u)·W·ejob), the weighted efficiency of
// equation form used throughout Section 3.
func weightedEff(j float64, w int, u, ejob float64) float64 {
	if ejob <= 0 || u >= 1 {
		return 0
	}
	return j / ((1 - u) * float64(w) * ejob)
}

// simReport assembles the common part of a simulation backend's report.
func simReport(s Scenario, backend string, j float64, w int, u float64, run sim.RunResult) Report {
	ejob := run.JobTime.Mean
	r := Report{
		Scenario:     s,
		Backend:      backend,
		W:            w,
		U:            u,
		EJob:         ejob,
		ETask:        run.MeanTask.Mean,
		EJobCI:       intervalFromCI(run.JobTime),
		ETaskCI:      intervalFromCI(run.MeanTask),
		Samples:      run.Samples,
		MetPrecision: run.MetPrecision,
	}
	if s.O > 0 {
		r.TaskRatio = j / float64(w) / s.O
	}
	if ejob > 0 {
		r.Speedup = j / ejob
		r.Efficiency = r.Speedup / float64(w)
		r.WeightedEfficiency = weightedEff(j, w, u, ejob)
		r.WeffCI = Interval{
			Lo: weightedEff(j, w, u, run.JobTime.Hi()),
			Hi: weightedEff(j, w, u, run.JobTime.Lo()),
		}
	}
	if s.TargetEff > 0 {
		ok := r.WeightedEfficiency >= s.TargetEff
		r.Feasible = &ok
	}
	return r
}

// ---- analytic backend ----

// Analytic answers queries with the paper's exact discrete-time analysis
// (equations (1)-(8)), the threshold and partition solvers, the exact
// completion-time distribution, and the scaled-problem sweep. It is the only
// backend answering every query kind.
type Analytic struct{}

// Name implements Solver.
func (Analytic) Name() string { return BackendAnalytic }

// Capabilities implements Solver: the analytic backend answers every kind.
func (Analytic) Capabilities() []string { return QueryKinds() }

// Solve implements Solver.
func (a Analytic) Solve(ctx context.Context, s Scenario) (Report, error) {
	return a.report(ctx, s)
}

// Answer implements Solver.
func (a Analytic) Answer(ctx context.Context, q Query) (Answer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	switch t := q.(type) {
	case ReportQuery:
		r, err := a.report(ctx, t.Scenario)
		if err != nil {
			return nil, err
		}
		return ReportAnswer{Report: r}, nil
	case ThresholdQuery:
		return a.threshold(t)
	case PartitionQuery:
		return a.partition(ctx, t)
	case DistributionQuery:
		return a.distribution(t)
	case ScaledQuery:
		return a.scaled(t)
	case TimelineQuery:
		return a.timeline(ctx, t)
	default:
		return nil, unsupported(BackendAnalytic, q.Kind())
	}
}

// report is the ReportQuery body (PR 1's Solve).
func (a Analytic) report(ctx context.Context, s Scenario) (Report, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}
	if err := s.Validate(); err != nil {
		return Report{}, err
	}
	if s.Heterogeneous() {
		r, err := a.fleetReport(s)
		if err != nil {
			return Report{}, err
		}
		r.Elapsed = time.Since(start)
		return r, nil
	}
	p, err := s.Params()
	if err != nil {
		return Report{}, err
	}
	res, err := core.Analyze(p)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		Scenario:           s,
		Backend:            BackendAnalytic,
		W:                  p.W,
		U:                  res.U,
		EJob:               res.EJob,
		ETask:              res.ETask,
		TaskRatio:          res.Metrics.TaskRatio,
		Speedup:            res.Speedup,
		Efficiency:         res.Efficiency,
		WeightedEfficiency: res.WeightedEfficiency,
	}
	if s.TargetEff > 0 {
		v, err := core.Assess(p, s.TargetEff)
		if err != nil {
			return Report{}, err
		}
		r.setVerdict(v.Feasible, v.MinRatio, v.MinJobDemand)
	}
	if s.Deadline > 0 {
		prob, err := core.DeadlineProb(p, s.Deadline)
		if err != nil {
			return Report{}, err
		}
		r.DeadlineProb = &prob
	}
	r.Elapsed = time.Since(start)
	return r, nil
}

// fleetReport answers a heterogeneous (model-form fleet) scenario through
// the Poisson-binomial fleet kernel.
func (Analytic) fleetReport(s Scenario) (Report, error) {
	f, err := s.Fleet()
	if err != nil {
		return Report{}, err
	}
	res, err := core.AnalyzeFleet(f)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		Scenario:           s,
		Backend:            BackendAnalytic,
		W:                  res.W,
		U:                  res.U,
		EJob:               res.EJob,
		ETask:              res.ETask,
		TaskRatio:          res.Metrics.TaskRatio,
		Speedup:            res.Speedup,
		Efficiency:         res.Efficiency,
		WeightedEfficiency: res.WeightedEfficiency,
	}
	if s.TargetEff > 0 {
		v, err := core.AssessFleet(f, s.TargetEff)
		if err != nil {
			return Report{}, err
		}
		r.setVerdict(v.Feasible, v.MinRatio, v.MinJobDemand)
	}
	if s.Deadline > 0 {
		prob, err := core.FleetDeadlineProb(f, s.Deadline)
		if err != nil {
			return Report{}, err
		}
		r.DeadlineProb = &prob
	}
	return r, nil
}

// threshold answers a ThresholdQuery with the exact solver.
func (Analytic) threshold(q ThresholdQuery) (Answer, error) {
	if len(q.Stations) > 0 {
		template, err := fleetTemplate(q.Stations, q.O)
		if err != nil {
			return nil, err
		}
		stations, err := core.TileFleet(template, q.W)
		if err != nil {
			return nil, err
		}
		fq := core.FleetThresholdQuery{Stations: stations, O: q.O, TargetWeightedEff: q.TargetEff}
		ratio, err := fq.MinTaskRatio(q.maxRatio(DefaultMaxRatio))
		if err != nil {
			return nil, err
		}
		ans := ThresholdAnswer{
			Backend:      BackendAnalytic,
			MinRatio:     ratio,
			MinJobDemand: core.RequiredJobDemand(ratio, q.O, q.W),
		}
		res, err := core.AnalyzeFleet(core.Fleet{J: ans.MinJobDemand, O: q.O, Stations: stations})
		if err != nil {
			return nil, err
		}
		ans.AchievedWeff = res.WeightedEfficiency
		return ans, nil
	}
	cq := core.ThresholdQuery{W: q.W, O: q.O, Util: q.Util, TargetWeightedEff: q.TargetEff}
	ratio, err := cq.MinTaskRatio(q.maxRatio(DefaultMaxRatio))
	if err != nil {
		return nil, err
	}
	ans := ThresholdAnswer{
		Backend:      BackendAnalytic,
		MinRatio:     ratio,
		MinJobDemand: core.RequiredJobDemand(ratio, q.O, q.W),
		AchievedWeff: 1,
	}
	if q.Util > 0 {
		p, err := core.ParamsFromUtilization(ans.MinJobDemand, q.W, q.O, q.Util)
		if err != nil {
			return nil, err
		}
		res, err := core.Analyze(p)
		if err != nil {
			return nil, err
		}
		ans.AchievedWeff = res.WeightedEfficiency
	}
	return ans, nil
}

// partition answers a PartitionQuery with the exact right-sizing solver and
// reports the full model output at the chosen size.
func (a Analytic) partition(ctx context.Context, q PartitionQuery) (Answer, error) {
	if len(q.Stations) > 0 {
		template, err := fleetTemplate(q.Stations, q.O)
		if err != nil {
			return nil, err
		}
		w, err := core.MaxFleetWorkstations(q.J, q.O, template, q.TargetEff, q.MaxW)
		if err != nil {
			return nil, err
		}
		tiled, err := core.TileFleet(template, w)
		if err != nil {
			return nil, err
		}
		r, err := a.report(ctx, Scenario{
			Name: "partition", J: q.J, W: w, O: q.O, TargetEff: q.TargetEff,
			Stations: stationSpecs(tiled),
		})
		if err != nil {
			return nil, err
		}
		return PartitionAnswer{Backend: BackendAnalytic, W: w, Report: r}, nil
	}
	plan, err := core.PlanPartition(q.J, q.O, q.Util, q.TargetEff, q.MaxW)
	if err != nil {
		return nil, err
	}
	r, err := a.report(ctx, Scenario{
		Name: "partition", J: q.J, W: plan.W, O: q.O, Util: q.Util, TargetEff: q.TargetEff,
	})
	if err != nil {
		return nil, err
	}
	return PartitionAnswer{Backend: BackendAnalytic, W: plan.W, Report: r}, nil
}

// distribution answers a DistributionQuery exactly from the model's
// discrete job-time distribution.
func (Analytic) distribution(q DistributionQuery) (Answer, error) {
	var (
		d   core.TimeDistribution
		err error
	)
	if q.Scenario.Heterogeneous() {
		var f core.Fleet
		if f, err = q.Scenario.Fleet(); err != nil {
			return nil, err
		}
		d, err = core.FleetJobTimeDistribution(f)
	} else {
		var p core.Params
		if p, err = q.Scenario.Params(); err != nil {
			return nil, err
		}
		d, err = core.JobTimeDistribution(p)
	}
	if err != nil {
		return nil, err
	}
	ans := DistributionAnswer{
		Backend:  BackendAnalytic,
		Scenario: q.Scenario,
		Mean:     d.Mean(),
		StdDev:   d.StdDev(),
	}
	for _, prob := range q.quantiles() {
		ans.Quantiles = append(ans.Quantiles, QuantileValue{Q: prob, Time: d.Quantile(prob)})
	}
	for _, t := range q.Deadlines {
		ans.Deadlines = append(ans.Deadlines, DeadlineValue{Deadline: t, Prob: 1 - d.TailProb(t)})
	}
	return ans, nil
}

// scaled answers a ScaledQuery with the exact scaled-problem sweep.
func (Analytic) scaled(q ScaledQuery) (Answer, error) {
	if len(q.Stations) > 0 {
		template, err := fleetTemplate(q.Stations, q.O)
		if err != nil {
			return nil, err
		}
		pts, err := core.ScaledFleetSweep(q.T, q.O, template, q.Ws)
		if err != nil {
			return nil, err
		}
		ans := ScaledAnswer{Backend: BackendAnalytic, Points: make([]ScaledResultPoint, 0, len(pts))}
		for _, pt := range pts {
			ans.Points = append(ans.Points, ScaledResultPoint{
				W:                   pt.W,
				EJob:                pt.Result.EJob,
				IncreaseVsDedicated: pt.IncreaseVsDedicated,
				IncreaseVsSingle:    pt.IncreaseVsSingle,
				WeightedEff:         pt.Result.WeightedEfficiency,
			})
		}
		return ans, nil
	}
	pts, err := core.ScaledSweep(q.T, q.O, q.Util, q.Ws)
	if err != nil {
		return nil, err
	}
	ans := ScaledAnswer{Backend: BackendAnalytic, Points: make([]ScaledResultPoint, 0, len(pts))}
	for _, pt := range pts {
		ans.Points = append(ans.Points, ScaledResultPoint{
			W:                   pt.W,
			EJob:                pt.Result.EJob,
			IncreaseVsDedicated: pt.IncreaseVsDedicated,
			IncreaseVsSingle:    pt.IncreaseVsSingle,
			WeightedEff:         pt.Result.WeightedEfficiency,
		})
	}
	return ans, nil
}

// ---- exact-simulation backend ----

// ExactSim answers queries with the discrete-time simulator of the analyzed
// model under the batch-means protocol — the paper's validation study as a
// backend. Threshold queries run an empirical bisection; distribution
// queries are answered from raw job samples.
type ExactSim struct {
	// Protocol is the output-analysis protocol; zero means the paper's.
	Protocol sim.Protocol
}

// Name implements Solver.
func (ExactSim) Name() string { return BackendExact }

// Capabilities implements Solver. Partition queries are excluded: the exact
// simulator requires integral task demand, which a bisection over W cannot
// maintain at fixed J.
func (ExactSim) Capabilities() []string {
	return []string{KindReport, KindThreshold, KindDistribution}
}

// Solve implements Solver.
func (x ExactSim) Solve(ctx context.Context, s Scenario) (Report, error) {
	return x.report(ctx, s)
}

// Answer implements Solver.
func (x ExactSim) Answer(ctx context.Context, q Query) (Answer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	switch t := q.(type) {
	case ReportQuery:
		r, err := x.report(ctx, t.Scenario)
		if err != nil {
			return nil, err
		}
		return ReportAnswer{Report: r}, nil
	case ThresholdQuery:
		if len(t.Stations) > 0 {
			return nil, refuseHeterogeneous(BackendExact, KindThreshold)
		}
		maxRatio := t.maxRatio(DefaultSimMaxRatio)
		return bisectThreshold(ctx, BackendExact, t, maxRatio, analyticThresholdGuess(t, maxRatio), x.report)
	case DistributionQuery:
		return x.distribution(ctx, t)
	default:
		return nil, unsupported(BackendExact, q.Kind())
	}
}

// report is the ReportQuery body (PR 1's Solve). Heterogeneous fleets are
// refused with the typed error: the discrete-time simulator realizes the
// homogeneous model only.
func (x ExactSim) report(ctx context.Context, s Scenario) (Report, error) {
	start := time.Now()
	if err := s.Validate(); err != nil {
		return Report{}, err
	}
	if s.Heterogeneous() {
		return Report{}, refuseHeterogeneous(BackendExact, KindReport)
	}
	p, err := s.Params()
	if err != nil {
		return Report{}, err
	}
	xs, err := sim.NewExact(p, s.Seed)
	if err != nil {
		return Report{}, err
	}
	run, err := sim.RunExactCtx(ctx, xs, protocolOrDefault(x.Protocol))
	if err != nil {
		return Report{}, err
	}
	r := simReport(s, BackendExact, p.J, p.W, p.Utilization(), run)
	r.Elapsed = time.Since(start)
	return r, nil
}

// distribution answers a DistributionQuery empirically: the protocol's
// sample budget of raw job executions, summarized by the empirical CDF.
func (x ExactSim) distribution(ctx context.Context, q DistributionQuery) (Answer, error) {
	if q.Scenario.Heterogeneous() {
		return nil, refuseHeterogeneous(BackendExact, KindDistribution)
	}
	p, err := q.Scenario.Params()
	if err != nil {
		return nil, err
	}
	xs, err := sim.NewExact(p, q.Scenario.Seed)
	if err != nil {
		return nil, err
	}
	pr := protocolOrDefault(x.Protocol)
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	n := pr.Batches * pr.BatchSize
	samples := make([]float64, 0, n)
	for len(samples) < n {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i := 0; i < pr.BatchSize && len(samples) < n; i++ {
			samples = append(samples, xs.Sample().JobTime)
		}
	}
	return empiricalDistribution(BackendExact, q, samples), nil
}

// ---- discrete-event backend ----

// DES answers queries with the discrete-event simulator: wall-clock owner
// think times, arbitrary distributions (OwnerCV2, TaskDemand, explicit
// stations) and heterogeneous machines. Threshold and partition queries run
// empirical bisections; each probe's precision refinement extends a live
// GeneralRun session, so tightening a CI never re-simulates earlier samples.
type DES struct {
	// Protocol is the output-analysis protocol; zero means the paper's.
	Protocol sim.Protocol
	// Warmup is the number of discarded job executions that bring the owner
	// processes to steady state; negative disables, zero means a default.
	Warmup int
}

// DefaultDESWarmup is the warmup used when DES.Warmup is zero.
const DefaultDESWarmup = 10

// Name implements Solver.
func (DES) Name() string { return BackendDES }

// Capabilities implements Solver: everything except the scaled curve, which
// is a pure model artifact.
func (DES) Capabilities() []string {
	return []string{KindReport, KindThreshold, KindPartition, KindDistribution, KindTimeline}
}

// Solve implements Solver.
func (d DES) Solve(ctx context.Context, s Scenario) (Report, error) {
	return d.report(ctx, s)
}

// Answer implements Solver.
func (d DES) Answer(ctx context.Context, q Query) (Answer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	switch t := q.(type) {
	case ReportQuery:
		r, err := d.report(ctx, t.Scenario)
		if err != nil {
			return nil, err
		}
		return ReportAnswer{Report: r}, nil
	case ThresholdQuery:
		maxRatio := t.maxRatio(DefaultSimMaxRatio)
		return bisectThreshold(ctx, BackendDES, t, maxRatio, analyticThresholdGuess(t, maxRatio), d.report)
	case PartitionQuery:
		return bisectPartition(ctx, BackendDES, t, analyticPartitionGuess(t), d.report)
	case DistributionQuery:
		return d.distribution(ctx, t)
	case TimelineQuery:
		return d.timeline(ctx, t)
	default:
		return nil, unsupported(BackendDES, q.Kind())
	}
}

// report is the ReportQuery body (PR 1's Solve).
func (d DES) report(ctx context.Context, s Scenario) (Report, error) {
	start := time.Now()
	cfg, err := d.generalConfig(s)
	if err != nil {
		return Report{}, err
	}
	g, err := sim.NewGeneral(cfg)
	if err != nil {
		return Report{}, err
	}
	run, err := sim.RunGeneralCtx(ctx, g, protocolOrDefault(d.Protocol))
	if err != nil {
		return Report{}, err
	}
	j, err := s.TotalDemand()
	if err != nil {
		return Report{}, err
	}
	u := cfg.MeanUtilization()
	r := simReport(s, BackendDES, j, s.StationCount(), u, run)
	r.Elapsed = time.Since(start)
	return r, nil
}

// generalConfig lowers the scenario with the backend's warmup applied.
func (d DES) generalConfig(s Scenario) (sim.GeneralConfig, error) {
	cfg, err := s.GeneralConfig()
	if err != nil {
		return sim.GeneralConfig{}, err
	}
	switch {
	case d.Warmup > 0:
		cfg.WarmupJobs = d.Warmup
	case d.Warmup == 0:
		cfg.WarmupJobs = DefaultDESWarmup
	}
	return cfg, nil
}

// distribution answers a DistributionQuery empirically from the general
// simulator's job samples.
func (d DES) distribution(ctx context.Context, q DistributionQuery) (Answer, error) {
	cfg, err := d.generalConfig(q.Scenario)
	if err != nil {
		return nil, err
	}
	g, err := sim.NewGeneral(cfg)
	if err != nil {
		return nil, err
	}
	pr := protocolOrDefault(d.Protocol)
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	st, err := g.RunCtx(ctx, pr.Batches*pr.BatchSize)
	if err != nil {
		return nil, err
	}
	samples := make([]float64, len(st.Samples))
	for i, s := range st.Samples {
		samples[i] = s.JobTime
	}
	return empiricalDistribution(BackendDES, q, samples), nil
}

// empiricalDistribution summarizes raw job-time samples into a
// DistributionAnswer: moments, inverse-CDF quantiles and deadline coverage.
func empiricalDistribution(backend string, q DistributionQuery, samples []float64) DistributionAnswer {
	sort.Float64s(samples)
	var sum stats.Summary
	for _, v := range samples {
		sum.Add(v)
	}
	ans := DistributionAnswer{
		Backend:  backend,
		Scenario: q.Scenario,
		Mean:     sum.Mean(),
		StdDev:   sum.StdDev(),
		Samples:  int64(len(samples)),
	}
	for _, prob := range q.quantiles() {
		ans.Quantiles = append(ans.Quantiles, QuantileValue{Q: prob, Time: stats.EmpiricalQuantile(samples, prob)})
	}
	for _, t := range q.Deadlines {
		// P(job time <= t): fraction of sorted samples at or below t.
		at := sort.SearchFloat64s(samples, t)
		for at < len(samples) && samples[at] == t {
			at++
		}
		ans.Deadlines = append(ans.Deadlines, DeadlineValue{Deadline: t, Prob: float64(at) / float64(len(samples))})
	}
	return ans
}
