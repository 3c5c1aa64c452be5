package solve

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// spreadBase is the canonical heterogeneous frontier fixture: two
// availability classes about a count-weighted mean of p̄ = 0.0115 (the
// util ≈ 0.10 neighbourhood of the Section 3 boundary), searched over the
// spread × task-ratio plane.
func spreadBase() ReportQuery {
	return ReportQuery{Scenario: Scenario{
		Name: "spread", W: 20, O: 10, J: 2000, TargetEff: 0.8,
		Stations: []StationSpec{
			{P: 0.005, Count: 10},
			{P: 0.018, Count: 10},
		},
	}}
}

// TestSpreadAxisMatchesDirectAnswers expands a spread × ratio grid and
// checks every point bit-for-bit against a direct analytic solve of the
// manually rescaled fleet — the axis must be pure sugar over spreadStations.
func TestSpreadAxisMatchesDirectAnswers(t *testing.T) {
	ctx := context.Background()
	spreads := []float64{0, 0.5, 1, 1.4}
	ratios := []float64{4, 12}
	res, err := CollectQueries(ctx, QuerySweepSpec{
		Base: spreadBase(), Spread: spreads, TaskRatio: ratios, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(spreads)*len(ratios) {
		t.Fatalf("grid has %d points, want %d", len(res), len(spreads)*len(ratios))
	}
	analytic := Analytic{}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("point %d: %v", r.Point.Index, r.Err)
		}
		// Ratio is the outer loop, spread the inner one.
		ratio := ratios[r.Point.Index/len(spreads)]
		spread := spreads[r.Point.Index%len(spreads)]

		base := spreadBase().Scenario
		specs, err := spreadStations(base.Stations, base.O, spread)
		if err != nil {
			t.Fatalf("spread %g: %v", spread, err)
		}
		direct := base
		direct.Stations = specs
		direct.J = ratio * direct.O * float64(direct.W)
		want, err := analytic.Answer(ctx, ReportQuery{Scenario: direct})
		if err != nil {
			t.Fatalf("direct solve (spread %g, ratio %g): %v", spread, ratio, err)
		}
		g, w := r.Answer.(ReportAnswer).Report, want.(ReportAnswer).Report
		if g.EJob != w.EJob || g.WeightedEfficiency != w.WeightedEfficiency || g.U != w.U {
			t.Errorf("point %d (spread %g, ratio %g): grid (EJob %v, weff %v, U %v) vs direct (%v, %v, %v)",
				r.Point.Index, spread, ratio, g.EJob, w.EJob, g.WeightedEfficiency, w.WeightedEfficiency, g.U, w.U)
		}
	}
}

// TestSpreadZeroIsHomogeneousCousin pins the axis's anchor: spread 0
// collapses the fleet onto its count-weighted mean availability, and the
// answer must reproduce the aggregate-form homogeneous report bit-for-bit.
func TestSpreadZeroIsHomogeneousCousin(t *testing.T) {
	ctx := context.Background()
	analytic := Analytic{}
	res, err := CollectQueries(ctx, QuerySweepSpec{Base: spreadBase(), Spread: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Err != nil {
		t.Fatalf("spread-0 grid: %+v", res)
	}
	got := res[0].Answer.(ReportAnswer).Report

	// p̄ = (10·0.005 + 10·0.018)/20, spelled the aggregate way.
	cousin, err := analytic.Answer(ctx, ReportQuery{Scenario: Scenario{
		Name: "cousin", W: 20, O: 10, J: 2000, TargetEff: 0.8, P: 0.0115,
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := cousin.(ReportAnswer).Report
	if got.EJob != want.EJob || got.WeightedEfficiency != want.WeightedEfficiency || got.U != want.U {
		t.Errorf("spread 0 (EJob %v, weff %v, U %v) differs from homogeneous cousin (%v, %v, %v)",
			got.EJob, got.WeightedEfficiency, got.U, want.EJob, want.WeightedEfficiency, want.U)
	}
	if got.Feasible == nil || want.Feasible == nil || *got.Feasible != *want.Feasible {
		t.Errorf("spread 0 verdict %v differs from cousin %v", got.Feasible, want.Feasible)
	}
}

// TestSpreadAxisThresholdTemplate drives the spread axis through a
// station-template threshold query: every grid point must match a direct
// solve over the rescaled template.
func TestSpreadAxisThresholdTemplate(t *testing.T) {
	ctx := context.Background()
	base := ThresholdQuery{
		W: 4, O: 10, TargetEff: 0.7, Seed: 11,
		Stations: []StationSpec{{P: 0.03, Count: 2}, {P: 0.08, Count: 2}},
	}
	spreads := []float64{0, 1, 1.5}
	res, err := CollectQueries(ctx, QuerySweepSpec{Base: base, Spread: spreads, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(spreads) {
		t.Fatalf("grid has %d points, want %d", len(res), len(spreads))
	}
	analytic := Analytic{}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("point %d: %v", r.Point.Index, r.Err)
		}
		specs, err := spreadStations(base.Stations, base.O, spreads[r.Point.Index])
		if err != nil {
			t.Fatal(err)
		}
		direct := base
		direct.Stations = specs
		want, err := analytic.Answer(ctx, direct)
		if err != nil {
			t.Fatalf("direct threshold (spread %g): %v", spreads[r.Point.Index], err)
		}
		g, w := r.Answer.(ThresholdAnswer), want.(ThresholdAnswer)
		if g.MinRatio != w.MinRatio || g.MinJobDemand != w.MinJobDemand {
			t.Errorf("spread %g: grid ratio %d (J %g) vs direct %d (J %g)",
				spreads[r.Point.Index], g.MinRatio, g.MinJobDemand, w.MinRatio, w.MinJobDemand)
		}
	}
}

// TestSpreadFrontierMatchesDenseSweep locates the feasibility boundary on
// the spread × ratio plane adaptively and checks it cell-for-cell against a
// dense sweep over the identical node lattice — the heterogeneous analogue
// of TestFrontierMatchesDenseSweep.
func TestSpreadFrontierMatchesDenseSweep(t *testing.T) {
	x := FrontierAxis{Axis: FrontierAxisSpread, Min: 0, Max: 1.6}
	y := FrontierAxis{Axis: FrontierAxisRatio, Min: 1, Max: 40}
	spec := FrontierSpec{Base: spreadBase(), X: x, Y: y, Coarse: 2, Depth: 3, Seed: 5}
	res := spec.Resolution()
	if res != 16 {
		t.Fatalf("resolution %d, want 16", res)
	}
	fres, err := CollectFrontier(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	got := boundarySet(t, fres.Cells)

	var spreads, ratios []float64
	for i := 0; i <= res; i++ {
		spreads = append(spreads, x.value(i, res))
		ratios = append(ratios, y.value(i, res))
	}
	dense, err := CollectQueries(context.Background(), QuerySweepSpec{
		Base: spreadBase(), Spread: spreads, TaskRatio: ratios, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	feas := make(map[[2]int]bool)
	for _, r := range dense {
		if r.Err != nil {
			t.Fatalf("dense point %d: %v", r.Point.Index, r.Err)
		}
		rep := r.Answer.(ReportAnswer).Report
		if rep.Feasible == nil {
			t.Fatalf("dense point %d carries no verdict", r.Point.Index)
		}
		// Ratio is the outer loop, spread the inner: ix is the spread index.
		feas[[2]int{r.Point.Index % (res + 1), r.Point.Index / (res + 1)}] = *rep.Feasible
	}
	want := make(map[[2]int]bool)
	for ix := 0; ix < res; ix++ {
		for iy := 0; iy < res; iy++ {
			a, b := feas[[2]int{ix, iy}], feas[[2]int{ix + 1, iy}]
			c, d := feas[[2]int{ix, iy + 1}], feas[[2]int{ix + 1, iy + 1}]
			if a != b || a != c || a != d {
				want[[2]int{ix, iy}] = true
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("fixture's boundary does not cross the searched window")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("boundary cells differ: frontier %d cells, dense %d cells", len(got), len(want))
	}
	if fres.Stats.Evaluations >= fres.Stats.DenseEvaluations {
		t.Errorf("adaptive run probed %d nodes, dense needs only %d", fres.Stats.Evaluations, fres.Stats.DenseEvaluations)
	}
}

// TestSpreadAxisDomainErrorIsPerPoint checks that a spread value pushing a
// station outside [0,1) poisons only its own grid point: the sweep records
// a PointDomainError there and answers the rest.
func TestSpreadAxisDomainErrorIsPerPoint(t *testing.T) {
	res, err := CollectQueries(context.Background(), QuerySweepSpec{
		Base: spreadBase(), Spread: []float64{1, 3}, // 3 drives p below 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("grid has %d points, want 2", len(res))
	}
	if res[0].Err != nil {
		t.Errorf("in-domain point failed: %v", res[0].Err)
	}
	var domain *PointDomainError
	if !errors.As(res[1].Err, &domain) {
		t.Fatalf("out-of-domain point: want PointDomainError, got %v", res[1].Err)
	}
	if !strings.Contains(domain.Error(), "spread") {
		t.Errorf("domain error should name the spread axis: %v", domain)
	}
}

// TestSpreadAxisRejectsHomogeneousBase pins the hard (whole-grid) error for
// a spread axis over a base with no station mix to rescale.
func TestSpreadAxisRejectsHomogeneousBase(t *testing.T) {
	_, err := CollectQueries(context.Background(), QuerySweepSpec{
		Base:   ReportQuery{Scenario: Scenario{Name: "hom", W: 20, O: 10, J: 2000, Util: 0.1}},
		Spread: []float64{0, 1},
	})
	if err == nil || !strings.Contains(err.Error(), "spread") {
		t.Fatalf("homogeneous base with a spread axis: want hard error, got %v", err)
	}

	_, err = CollectQueries(context.Background(), QuerySweepSpec{
		Base:   ThresholdQuery{W: 4, O: 10, Util: 0.05, TargetEff: 0.7},
		Spread: []float64{0, 1},
	})
	if err == nil || !strings.Contains(err.Error(), "spread") {
		t.Fatalf("template-free threshold with a spread axis: want hard error, got %v", err)
	}
}

// TestSpreadSpecJSONRoundTrip checks the sweep and frontier wire formats
// carry the new axis.
func TestSpreadSpecJSONRoundTrip(t *testing.T) {
	spec := QuerySweepSpec{Base: spreadBase(), Spread: []float64{0, 0.5, 1}, TaskRatio: []float64{4}, Seed: 3}
	b, err := spec.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back QuerySweepSpec
	if err := back.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Spread, spec.Spread) {
		t.Errorf("spread round-trips to %v, want %v", back.Spread, spec.Spread)
	}

	fs := FrontierSpec{
		Base:   spreadBase(),
		X:      FrontierAxis{Axis: FrontierAxisSpread, Min: 0, Max: 1.6},
		Y:      FrontierAxis{Axis: FrontierAxisRatio, Min: 1, Max: 40},
		Coarse: 2, Depth: 2,
	}
	if err := fs.Validate(); err != nil {
		t.Fatalf("spread frontier spec should validate: %v", err)
	}
	neg := fs
	neg.X.Min = -0.5
	if err := neg.Validate(); err == nil || !strings.Contains(err.Error(), "spread") {
		t.Errorf("negative spread minimum: want validation error naming the axis, got %v", err)
	}
	if math.IsNaN(fs.X.value(8, 16)) {
		t.Error("axis value interpolation broke")
	}
}

// TestTaskRatioAxisFleetWithoutW: a task_ratio axis over a model-form fleet
// that leaves w to its station counts expands J over the fleet's total
// station count, so the sweep and the frontier answer exactly as they do
// with w given explicitly.
func TestTaskRatioAxisFleetWithoutW(t *testing.T) {
	ctx := context.Background()
	explicit := spreadBase()
	implicit := spreadBase()
	implicit.Scenario.W = 0

	sweep := func(base ReportQuery) []QueryResult {
		res, err := CollectQueries(ctx, QuerySweepSpec{Base: base, TaskRatio: []float64{2, 8, 30}, Spread: []float64{0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	got, want := sweep(implicit), sweep(explicit)
	for i := range want {
		if got[i].Err != nil || want[i].Err != nil {
			t.Fatalf("point %d: implicit w err %v, explicit w err %v", i, got[i].Err, want[i].Err)
		}
		g, w := got[i].Answer.(ReportAnswer).Report, want[i].Answer.(ReportAnswer).Report
		if g.Scenario.J != w.Scenario.J {
			t.Errorf("point %d: j = %v without w, %v with w", i, g.Scenario.J, w.Scenario.J)
		}
		g.Scenario, w.Scenario, g.Elapsed, w.Elapsed = Scenario{}, Scenario{}, 0, 0
		if !reflect.DeepEqual(g, w) {
			t.Errorf("point %d: report without w %+v, with w %+v", i, g, w)
		}
	}

	frontier := func(base ReportQuery) FrontierResult {
		res, err := CollectFrontier(ctx, FrontierSpec{
			Base:   base,
			X:      FrontierAxis{Axis: FrontierAxisSpread, Min: 0, Max: 1.6},
			Y:      FrontierAxis{Axis: FrontierAxisRatio, Min: 1, Max: 40},
			Coarse: 2, Depth: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fg, fw := frontier(implicit), frontier(explicit)
	if len(boundarySet(t, fg.Cells)) == 0 {
		t.Fatal("fixture's boundary does not cross the searched window")
	}
	if !reflect.DeepEqual(fg, fw) {
		t.Errorf("frontier without w differs from the frontier with w:\n%+v\n%+v", fg, fw)
	}
}
