package solve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"

	"feasim/internal/rng"
	"feasim/internal/sim"
)

// The query sweep is the generalization of PR 1's Report grid: the same axis
// expansion, worker pool, deterministic per-point seeding and analytic
// deduplication, but over any query kind. SweepSpec (Report grids) is now a
// thin adapter over this engine.

// axisPoint is one cell of the axis cross product. A negative value means
// "keep the base query's value" (axes that do not apply to a query kind are
// rejected loudly by withAxes).
type axisPoint struct {
	// index is the point's position in grid order, used to name scenarios.
	index  int
	w      int
	util   float64
	ratio  float64
	cv2    float64
	spread float64
}

// PointDomainError marks a per-point failure of the model's domain — an axis
// value that produces a point no backend could answer (e.g. a utilization
// rescale pushing a phase to saturation). The grid expansion records it on
// the point instead of aborting the sweep, and the HTTP error taxonomy maps
// it to the unprocessable class (422), not a server fault.
type PointDomainError struct {
	Err error
}

func (e *PointDomainError) Error() string { return e.Err.Error() }
func (e *PointDomainError) Unwrap() error { return e.Err }

// applyScenarioAxes is the shared axis interpretation for scenario-carrying
// query kinds (report, distribution) — identical to PR 1's grid expansion.
func applyScenarioAxes(sc Scenario, ax axisPoint) (Scenario, error) {
	if ax.w >= 0 {
		sc.W = ax.w
	}
	if ax.util >= 0 {
		sc.Util = ax.util
		sc.P = 0
	}
	if ax.ratio >= 0 {
		if sc.Explicit() {
			// Explicit-station scenarios carry no aggregate owner demand
			// (sc.O == 0), so ratio·O·W would silently expand to J = 0 grids.
			return sc, fmt.Errorf("solve: the task_ratio axis does not apply to explicit-station scenarios (owner demand is per station, not aggregate)")
		}
		// A model-form fleet may leave w to its station counts.
		sc.J = ax.ratio * sc.O * float64(sc.StationCount())
	}
	if ax.cv2 >= 0 {
		sc.OwnerCV2 = ax.cv2
	}
	if ax.spread >= 0 {
		if !sc.Heterogeneous() {
			return sc, fmt.Errorf("solve: the spread axis applies only to heterogeneous (model-form) scenarios")
		}
		specs, err := spreadStations(sc.Stations, sc.O, ax.spread)
		if err != nil {
			// The rescale pushed a station outside [0,1): this one grid point
			// is outside the model's domain, but its neighbours may not be.
			// Keep the original (marshalable) station mix, name the point, and
			// report a per-point domain error so the sweep carries on.
			sc.Name = pointName(sc.Name, ax.index)
			return sc, &PointDomainError{Err: err}
		}
		sc.Stations = specs
	}
	sc.Name = pointName(sc.Name, ax.index)
	return sc, nil
}

// spreadStations rescales a model-form fleet's availability dispersion about
// its count-weighted mean: p_i' = p̄ + spread·(p_i − p̄). Spread 0 collapses
// the fleet onto its mean availability (the homogeneous cousin), 1 is the
// identity, and larger values widen the mix. Speeds and counts are untouched;
// per-station utilizations are resolved to explicit p values.
func spreadStations(specs []StationSpec, o, spread float64) ([]StationSpec, error) {
	var mean, total float64
	ps := make([]float64, len(specs))
	for i, ss := range specs {
		p, err := ss.resolveP(o)
		if err != nil {
			return nil, fmt.Errorf("solve: station %d: %w", i, err)
		}
		ps[i] = p
		mean += p * float64(ss.count())
		total += float64(ss.count())
	}
	mean /= total
	out := make([]StationSpec, len(specs))
	for i, ss := range specs {
		p := mean + spread*(ps[i]-mean)
		if p < 0 || p >= 1 {
			return nil, fmt.Errorf("solve: spread %g pushes station %d availability to p=%v (must stay in [0,1))", spread, i, p)
		}
		out[i] = StationSpec{P: p, Speed: ss.Speed, Count: ss.Count}
	}
	return out, nil
}

// cacheKey deduplicates analytic grid points across query kinds: the kind
// discriminator, a comparable scenario core (the report fast path pays no
// formatting or allocation, preserving PR 2's struct-key optimization), and
// a kind-specific extra for the non-report kinds, which are rare enough per
// grid that a formatted string costs nothing measurable.
type cacheKey struct {
	kind  string
	scen  analyticKey
	extra string
}

// ---- axis / seed / dedup hooks per query kind ----

func (q ReportQuery) withAxes(ax axisPoint) (Query, error) {
	sc, err := applyScenarioAxes(q.Scenario, ax)
	q.Scenario = sc
	if err != nil {
		var domain *PointDomainError
		if errors.As(err, &domain) {
			return q, err // per-point failure: the grid records it and moves on
		}
		return nil, err
	}
	return q, nil
}

func (q ReportQuery) withSeed(seed uint64) Query {
	q.Scenario = q.Scenario.WithSeed(seed)
	return q
}

func (q ReportQuery) dedupKey() (cacheKey, bool) {
	k, extra, ok := q.Scenario.analyticCacheKey()
	return cacheKey{kind: KindReport, scen: k, extra: extra}, ok
}

func (q DistributionQuery) withAxes(ax axisPoint) (Query, error) {
	sc, err := applyScenarioAxes(q.Scenario, ax)
	q.Scenario = sc
	if err != nil {
		var domain *PointDomainError
		if errors.As(err, &domain) {
			return q, err
		}
		return nil, err
	}
	return q, nil
}

func (q DistributionQuery) withSeed(seed uint64) Query {
	q.Scenario = q.Scenario.WithSeed(seed)
	return q
}

func (q DistributionQuery) dedupKey() (cacheKey, bool) {
	k, extra, ok := q.Scenario.analyticCacheKey()
	return cacheKey{
		kind:  KindDistribution,
		scen:  k,
		extra: fmt.Sprintf("%s%v|%v", extra, q.Quantiles, q.Deadlines),
	}, ok
}

func (q ThresholdQuery) withAxes(ax axisPoint) (Query, error) {
	if ax.ratio >= 0 {
		return nil, fmt.Errorf("solve: the task_ratio axis is the threshold query's search variable")
	}
	if ax.cv2 >= 0 {
		return nil, fmt.Errorf("solve: the owner_cv2 axis does not apply to threshold queries")
	}
	if ax.w >= 0 {
		q.W = ax.w
	}
	if ax.util >= 0 {
		q.Util = ax.util
	}
	if ax.spread >= 0 {
		if len(q.Stations) == 0 {
			return nil, fmt.Errorf("solve: the spread axis needs a station template on the threshold query")
		}
		specs, err := spreadStations(q.Stations, q.O, ax.spread)
		if err != nil {
			return q, &PointDomainError{Err: err}
		}
		q.Stations = specs
	}
	return q, nil
}

func (q ThresholdQuery) withSeed(seed uint64) Query {
	q.Seed = seed
	return q
}

func (q ThresholdQuery) dedupKey() (cacheKey, bool) {
	// The analytic threshold solver ignores the seed, so it is excluded. The
	// station-template signature folds the heterogeneity identity in.
	tpl, err := stationTemplateSignature(q.Stations, q.O)
	if err != nil {
		return cacheKey{}, false
	}
	return cacheKey{
		kind:  KindThreshold,
		extra: fmt.Sprintf("%d|%g|%g|%g|%d|%s", q.W, q.O, q.Util, q.TargetEff, q.MaxRatio, tpl),
	}, true
}

func (q PartitionQuery) withAxes(ax axisPoint) (Query, error) {
	if ax.ratio >= 0 {
		return nil, fmt.Errorf("solve: the task_ratio axis does not apply to partition queries")
	}
	if ax.cv2 >= 0 {
		return nil, fmt.Errorf("solve: the owner_cv2 axis does not apply to partition queries")
	}
	if ax.w >= 0 {
		q.MaxW = ax.w
	}
	if ax.util >= 0 {
		q.Util = ax.util
	}
	if ax.spread >= 0 {
		if len(q.Stations) == 0 {
			return nil, fmt.Errorf("solve: the spread axis needs a station template on the partition query")
		}
		specs, err := spreadStations(q.Stations, q.O, ax.spread)
		if err != nil {
			return q, &PointDomainError{Err: err}
		}
		q.Stations = specs
	}
	return q, nil
}

func (q PartitionQuery) withSeed(seed uint64) Query {
	q.Seed = seed
	return q
}

func (q PartitionQuery) dedupKey() (cacheKey, bool) {
	tpl, err := stationTemplateSignature(q.Stations, q.O)
	if err != nil {
		return cacheKey{}, false
	}
	return cacheKey{
		kind:  KindPartition,
		extra: fmt.Sprintf("%g|%g|%g|%g|%d|%s", q.J, q.O, q.Util, q.TargetEff, q.MaxW, tpl),
	}, true
}

func (q ScaledQuery) withAxes(ax axisPoint) (Query, error) {
	if ax.w >= 0 {
		return nil, fmt.Errorf("solve: the w axis does not apply to scaled queries (set ws in the query)")
	}
	if ax.cv2 >= 0 {
		return nil, fmt.Errorf("solve: the owner_cv2 axis does not apply to scaled queries")
	}
	if ax.util >= 0 {
		q.Util = ax.util
	}
	if ax.ratio >= 0 {
		q.T = ax.ratio * q.O
	}
	if ax.spread >= 0 {
		if len(q.Stations) == 0 {
			return nil, fmt.Errorf("solve: the spread axis needs a station template on the scaled query")
		}
		specs, err := spreadStations(q.Stations, q.O, ax.spread)
		if err != nil {
			return q, &PointDomainError{Err: err}
		}
		q.Stations = specs
	}
	return q, nil
}

// withSeed is a no-op: the scaled curve is analytic only.
func (q ScaledQuery) withSeed(uint64) Query { return q }

func (q ScaledQuery) dedupKey() (cacheKey, bool) {
	tpl, err := stationTemplateSignature(q.Stations, q.O)
	if err != nil {
		return cacheKey{}, false
	}
	return cacheKey{
		kind:  KindScaled,
		extra: fmt.Sprintf("%g|%g|%g|%v|%s", q.T, q.O, q.Util, q.Ws, tpl),
	}, true
}

func (q TimelineQuery) withAxes(ax axisPoint) (Query, error) {
	if ax.cv2 >= 0 {
		return nil, fmt.Errorf("solve: the owner_cv2 axis does not apply to timeline queries")
	}
	if ax.spread >= 0 {
		return nil, fmt.Errorf("solve: the spread axis does not apply to timeline queries (phased scenarios are homogeneous)")
	}
	sc := q.Scenario
	if ax.w >= 0 {
		sc.W = ax.w
	}
	if ax.ratio >= 0 {
		sc.J = ax.ratio * sc.O * float64(sc.W)
	}
	if ax.util >= 0 {
		// The util axis rescales every phase so the duration-weighted mean
		// hits the axis value, preserving the schedule's day/night shape.
		phases, _ := sc.phases()
		var weighted, total float64
		for _, ph := range phases {
			weighted += ph.Util * ph.Duration
			total += ph.Duration
		}
		if !(weighted > 0) {
			return nil, fmt.Errorf("solve: the util axis cannot rescale an all-idle timeline")
		}
		factor := ax.util * total / weighted
		scaled := make([]PhaseSpec, len(phases))
		for i, ph := range phases {
			ph.Util *= factor
			if ph.Util >= 1 {
				// The rescale overflowed a peak phase: this one grid point is
				// outside the model's domain, but its neighbours may not be.
				// Name the point, keep the original (marshalable) day shape,
				// and report a per-point domain error so the sweep carries on.
				sc.Name = pointName(sc.Name, ax.index)
				q.Scenario = sc
				return q, &PointDomainError{Err: fmt.Errorf("solve: util axis %g pushes phase %q to utilization %g (must stay below 1)", ax.util, ph.Name, ph.Util)}
			}
			scaled[i] = ph
		}
		if len(sc.Schedule) > 0 {
			sc.Schedule = scaled
		} else {
			sc.Trace = scaled
		}
	}
	sc.Name = pointName(sc.Name, ax.index)
	q.Scenario = sc
	return q, nil
}

// pointName appends the grid-order point suffix to a scenario name.
func pointName(name string, index int) string {
	if name == "" {
		return fmt.Sprintf("point%04d", index)
	}
	return fmt.Sprintf("%s/point%04d", name, index)
}

func (q TimelineQuery) withSeed(seed uint64) Query {
	q.Scenario = q.Scenario.WithSeed(seed)
	return q
}

func (q TimelineQuery) dedupKey() (cacheKey, bool) {
	sc := q.Scenario
	if !sc.Phased() || sc.Explicit() || sc.TaskDemand != "" {
		return cacheKey{}, false
	}
	// The quasi-static answer ignores Name, Seed and Samples; everything
	// else — including every phase of the timeline — is identity. Phases go
	// through the formatted extra, which also folds them into RouteHash.
	return cacheKey{
		kind: KindTimeline,
		extra: fmt.Sprintf("%g|%d|%g|%g|%g|%g|%d|%v|%v",
			sc.J, sc.W, sc.O, sc.TargetEff, q.Start, q.Horizon, q.Epochs, sc.Schedule, sc.Trace),
	}, true
}

// ---- spec ----

// QuerySweepSpec declares a query grid: a base query plus per-axis value
// lists, crossed with a backend list. Which axes apply depends on the base
// query's kind — scenario axes for report/distribution queries, W/Util for
// threshold queries, MaxW/Util for partition queries, Util/TaskRatio for
// scaled queries; an inapplicable axis fails expansion loudly. The JSON form
// nests the base query's envelope under "base".
type QuerySweepSpec struct {
	// Base is the query every grid point starts from. It may be incomplete
	// where an axis fills the value in (e.g. a zero W with a W axis).
	Base Query

	// W varies the workstation count (MaxW for partition queries).
	W []int
	// Util varies the owner utilization.
	Util []float64
	// TaskRatio varies the task ratio T/O (scenario J = ratio·O·W; scaled
	// query T = ratio·O).
	TaskRatio []float64
	// OwnerCV2 varies the owner demand variance (scenario kinds only).
	OwnerCV2 []float64
	// Spread varies a heterogeneous fleet's availability dispersion about
	// its count-weighted mean (p_i' = p̄ + spread·(p_i − p̄)); applies to
	// heterogeneous scenarios and station-template queries only.
	Spread []float64

	// Backends lists the solvers to fan each point across; empty means
	// analytic only.
	Backends []string

	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int
	// Seed is the root of the deterministic per-point seed split.
	Seed uint64
	// Protocol overrides the simulation backends' output-analysis protocol.
	Protocol *sim.Protocol
	// Warmup overrides the DES backend's warmup job count.
	Warmup int
}

// querySweepJSON is the wire form of QuerySweepSpec.
type querySweepJSON struct {
	Base      json.RawMessage `json:"base"`
	W         []int           `json:"w,omitempty"`
	Util      []float64       `json:"util,omitempty"`
	TaskRatio []float64       `json:"task_ratio,omitempty"`
	OwnerCV2  []float64       `json:"owner_cv2,omitempty"`
	Spread    []float64       `json:"spread,omitempty"`
	Backends  []string        `json:"backends,omitempty"`
	Workers   int             `json:"workers,omitempty"`
	Seed      uint64          `json:"seed,omitempty"`
	Protocol  *sim.Protocol   `json:"protocol,omitempty"`
	Warmup    int             `json:"warmup,omitempty"`
}

// MarshalJSON implements json.Marshaler, nesting the base query envelope.
func (sp QuerySweepSpec) MarshalJSON() ([]byte, error) {
	var base json.RawMessage
	if sp.Base != nil {
		b, err := MarshalQuery(sp.Base)
		if err != nil {
			return nil, err
		}
		base = b
	}
	return json.Marshal(querySweepJSON{
		Base: base, W: sp.W, Util: sp.Util, TaskRatio: sp.TaskRatio, OwnerCV2: sp.OwnerCV2,
		Spread: sp.Spread, Backends: sp.Backends, Workers: sp.Workers, Seed: sp.Seed,
		Protocol: sp.Protocol, Warmup: sp.Warmup,
	})
}

// UnmarshalJSON implements json.Unmarshaler with strict field checking. The
// base query is decoded but not validated — axes may complete it.
func (sp *QuerySweepSpec) UnmarshalJSON(data []byte) error {
	var raw querySweepJSON
	if err := unmarshalStrict(data, &raw); err != nil {
		return err
	}
	var base Query
	if len(raw.Base) > 0 {
		q, err := decodeQuery(raw.Base)
		if err != nil {
			return err
		}
		base = q
	}
	*sp = QuerySweepSpec{
		Base: base, W: raw.W, Util: raw.Util, TaskRatio: raw.TaskRatio, OwnerCV2: raw.OwnerCV2,
		Spread: raw.Spread, Backends: raw.Backends, Workers: raw.Workers, Seed: raw.Seed,
		Protocol: raw.Protocol, Warmup: raw.Warmup,
	}
	return nil
}

// backends resolves the backend list.
func (sp QuerySweepSpec) backends() []string {
	if len(sp.Backends) == 0 {
		return []string{BackendAnalytic}
	}
	return sp.Backends
}

// QueryPoint is one cell of the expanded query grid.
type QueryPoint struct {
	// Index is the point's position in grid order; results stream in
	// completion order and can be re-sorted by it.
	Index   int    `json:"index"`
	Backend string `json:"backend"`
	Query   Query  `json:"query"`
	// Err is a per-point domain error recorded at expansion time (an axis
	// value outside the model's domain, e.g. a timeline utilization rescale
	// overflowing a peak phase). The point is never solved; its QueryResult
	// carries the error. Not part of the wire shape — results report errors.
	Err error `json:"-"`
}

// MarshalJSON wraps the query in its kind envelope.
func (p QueryPoint) MarshalJSON() ([]byte, error) {
	q, err := MarshalQuery(p.Query)
	if err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Index   int             `json:"index"`
		Backend string          `json:"backend"`
		Query   json.RawMessage `json:"query"`
	}{p.Index, p.Backend, q})
}

// QueryResult is one streamed query-sweep result.
type QueryResult struct {
	Point  QueryPoint `json:"point"`
	Answer Answer     `json:"answer,omitempty"`
	// Err is non-nil when the point's solve failed; the sweep keeps going.
	Err error `json:"-"`
	// Error mirrors Err for JSON output.
	Error string `json:"error,omitempty"`
	// Cached marks analytic points deduplicated by the in-memory cache.
	Cached bool `json:"cached,omitempty"`
}

// Points expands the grid in deterministic order and assigns each point a
// seed split from the root stream, so a sweep's randomness is a pure
// function of (spec, grid order) no matter how many workers run it or how
// the scheduler interleaves them.
func (sp QuerySweepSpec) Points() ([]QueryPoint, error) {
	if sp.Base == nil {
		return nil, fmt.Errorf("solve: query sweep needs a base query")
	}
	for _, b := range sp.backends() {
		if _, err := NewSolver(b, Options{}); err != nil {
			return nil, err
		}
	}
	ws := sp.W
	if len(ws) == 0 {
		ws = []int{-1} // sentinel: keep base value
	}
	utils := sp.Util
	if len(utils) == 0 {
		utils = []float64{-1}
	}
	ratios := sp.TaskRatio
	if len(ratios) == 0 {
		ratios = []float64{-1}
	}
	cv2s := sp.OwnerCV2
	if len(cv2s) == 0 {
		cv2s = []float64{-1}
	}
	spreads := sp.Spread
	if len(spreads) == 0 {
		spreads = []float64{-1}
	}
	root := rng.NewStream(sp.Seed)
	var pts []QueryPoint
	for _, backend := range sp.backends() {
		for _, w := range ws {
			for _, util := range utils {
				for _, ratio := range ratios {
					for _, cv2 := range cv2s {
						for _, spread := range spreads {
							i := len(pts)
							q, err := sp.Base.withAxes(axisPoint{index: i, w: w, util: util, ratio: ratio, cv2: cv2, spread: spread})
							if err != nil {
								var domain *PointDomainError
								if errors.As(err, &domain) && q != nil {
									// A domain failure is this point's answer, not
									// the grid's: record it and keep expanding.
									pts = append(pts, QueryPoint{Index: i, Backend: backend, Query: q, Err: err})
									continue
								}
								return nil, err
							}
							q = q.withSeed(root.Split(uint64(i)).Uint64())
							if err := q.Validate(); err != nil {
								return nil, fmt.Errorf("solve: grid point %d (%s): %w", i, backend, err)
							}
							pts = append(pts, QueryPoint{Index: i, Backend: backend, Query: q})
						}
					}
				}
			}
		}
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("solve: sweep expands to an empty grid")
	}
	return pts, nil
}

// SweepQueries runs the expanded query grid on a context-cancellable worker
// pool and streams results over the returned channel in completion order.
// The channel is closed once every point has been answered or the context is
// cancelled; after cancellation no further results arrive. Errors on
// individual points are reported in their QueryResult and do not stop the
// sweep.
func SweepQueries(ctx context.Context, spec QuerySweepSpec) (<-chan QueryResult, error) {
	return sweepChannel(ctx, spec, func(qr QueryResult) QueryResult { return qr })
}

// sweepChannel is the shared worker-pool engine: convert runs inside the
// worker, so specialized result shapes (the Report grid's PointReport) pay
// no extra channel hop.
func sweepChannel[T any](ctx context.Context, spec QuerySweepSpec, convert func(QueryResult) T) (<-chan T, error) {
	pts, err := spec.Points()
	if err != nil {
		return nil, err
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pts) {
		workers = len(pts)
	}
	var pr sim.Protocol
	if spec.Protocol != nil {
		pr = *spec.Protocol
	}
	solvers := make(map[string]Solver)
	for _, b := range spec.backends() {
		s, err := NewSolver(b, Options{Protocol: pr, Warmup: spec.Warmup})
		if err != nil {
			return nil, err
		}
		solvers[b] = s
	}
	// The sweep dedup cache is the shared answer layer of cache.go: the
	// analytic backend is deterministic, so points sharing a key (e.g. the
	// same J/W/O/P crossed with several OwnerCV2 values or seeds) are solved
	// once. Points that are not exact repeats still share work one layer
	// down: the binomial tables are memoized by (N, P) process-wide
	// (core.Tables), so all workers of a sweep — and concurrent sweeps —
	// reuse each other's kernel builds.
	cache := NewAnswerCache(max(len(pts), DefaultAnswerCacheCapacity))

	in := make(chan QueryPoint)
	out := make(chan T, workers)
	var wg sync.WaitGroup

	// Feeder: stops handing out points as soon as the context is done.
	go func() {
		defer close(in)
		for _, p := range pts {
			select {
			case <-ctx.Done():
				return
			case in <- p:
			}
		}
	}()

	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range in {
				res := convert(solveQueryPoint(ctx, solvers[p.Backend], cache, p))
				select {
				case <-ctx.Done():
					return
				case out <- res:
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out, nil
}

// solveQueryPoint answers one grid point, consulting the analytic cache
// first. Points carrying an expansion-time domain error are never solved.
func solveQueryPoint(ctx context.Context, solver Solver, cache *AnswerCache, p QueryPoint) QueryResult {
	res := QueryResult{Point: p}
	if p.Err != nil {
		res.Err = p.Err
		res.Error = p.Err.Error()
		return res
	}
	key, cacheable := answerKey{}, false
	if p.Backend == BackendAnalytic {
		key, cacheable = answerCacheKey(BackendAnalytic, p.Query)
	}
	if cacheable {
		if a, ok := cache.lookup(key); ok {
			// The cached solve may carry a sibling's name/seed; restore this
			// point's scenario on the scenario-carrying answer kinds (and
			// scrub the stored Elapsed — it is not this point's).
			res.Answer = cachedAnswer(a, p.Query)
			res.Cached = true
			return res
		}
	}
	a, err := solver.Answer(ctx, p.Query)
	if err != nil {
		res.Err = err
		res.Error = err.Error()
		return res
	}
	res.Answer = a
	if cacheable {
		cache.store(key, a, nil)
	}
	return res
}

// CollectQueries drains a query sweep into a slice sorted by grid index. It
// returns ctx.Err() when the sweep was cut short by cancellation, along with
// whatever results completed before the cut.
func CollectQueries(ctx context.Context, spec QuerySweepSpec) ([]QueryResult, error) {
	ch, err := SweepQueries(ctx, spec)
	if err != nil {
		return nil, err
	}
	var results []QueryResult
	for r := range ch {
		results = append(results, r)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Point.Index < results[j].Point.Index })
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, nil
}

// ParseQuerySweep decodes a query sweep spec from JSON, rejecting unknown
// fields and validating the expanded grid.
func ParseQuerySweep(data []byte) (QuerySweepSpec, error) {
	var sp QuerySweepSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		return QuerySweepSpec{}, fmt.Errorf("solve: bad query sweep spec: %w", err)
	}
	if _, err := sp.Points(); err != nil {
		return QuerySweepSpec{}, err
	}
	return sp, nil
}

// LoadQuerySweep reads and decodes a query sweep spec JSON file.
func LoadQuerySweep(path string) (QuerySweepSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return QuerySweepSpec{}, err
	}
	return ParseQuerySweep(data)
}
