package sim

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"feasim/internal/core"
	"feasim/internal/rng"
)

// refGap is the inversion formula the burst sampler must reproduce bit for
// bit: rng.Geometric's ceil(log1p(-u)/log1p(-P)), at least 1, with the task
// ending when the gap is longer than the left units of progress.
func refGap(u, p float64, left int) (int, bool) {
	g := math.Max(math.Ceil(math.Log1p(-u)/math.Log1p(-p)), 1)
	if g > float64(left) {
		return 0, false
	}
	return int(g), true
}

// burstPs are request probabilities spanning the table's shapes: long and
// unsaturated (small P), short and saturating at 1 (P near 1).
var burstPs = []float64{1e-6, 1e-4, 1.0 / 90, 0.05, 0.3, 0.5, 0.9, 0.999}

func newBurstExact(t *testing.T, trials int, p float64) *Exact {
	t.Helper()
	x, err := NewExact(core.Params{J: float64(trials), W: 1, O: 10, P: p}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestBurstTableBoundaries walks u over ±2000 ulps around each threshold
// thr[k] and around both edges of its guard band, where the table (not the
// formula) decides, and requires the table's gap to equal the formula's for
// task remainders below, at and above k.
func TestBurstTableBoundaries(t *testing.T) {
	const ulps = 2000
	for _, p := range burstPs {
		x := newBurstExact(t, 100_000, p)
		top := len(x.thr) - 1
		for k := 1; k <= top; k++ {
			if k > 48 && k%61 != 0 && k != top {
				continue // every k near the origin, a sample of the rest
			}
			thr := x.thr[k]
			for _, center := range []float64{thr, thr * (1 - guardRel), thr * (1 + guardRel)} {
				u := center
				for i := 0; i < ulps; i++ {
					u = math.Nextafter(u, 0)
				}
				for i := 0; i <= 2*ulps; i, u = i+1, math.Nextafter(u, 2) {
					if u < 0 || u >= 1 {
						continue
					}
					for _, left := range []int{k - 1, k, k + 1, 100_000} {
						g, ok := x.nextGap(u, left)
						wg, wok := refGap(u, p, left)
						if g != wg || ok != wok {
							t.Fatalf("P=%v k=%d left=%d u=%v: table gap (%d, %v), formula (%d, %v)",
								p, k, left, u, g, ok, wg, wok)
						}
					}
				}
			}
		}
	}
}

// TestBurstTableMatchesFormulaRandom compares the table and the formula on
// random uniforms, including task remainders beyond the table.
func TestBurstTableMatchesFormulaRandom(t *testing.T) {
	s := rng.NewStream(3)
	for _, p := range burstPs {
		x := newBurstExact(t, 1_000_000, p)
		for i := 0; i < 200_000; i++ {
			u := s.Float64()
			left := s.IntN(2*burstTableCap + 10)
			g, ok := x.nextGap(u, left)
			wg, wok := refGap(u, p, left)
			if g != wg || ok != wok {
				t.Fatalf("P=%v left=%d u=%v: table gap (%d, %v), formula (%d, %v)", p, left, u, g, ok, wg, wok)
			}
		}
	}
}

// TestExactTableBounded: a hostile task demand (J = 1e9 on one station)
// must not size NewExact's allocation by T, and a run on it still stops on
// cancellation.
func TestExactTableBounded(t *testing.T) {
	p := mustParams(t, 1e9, 1, 10, 0.1)
	var x *Exact
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if x, err = NewExact(p, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Errorf("NewExact at T=1e9: %v allocations per run", allocs)
	}
	if len(x.thr) > burstTableCap+1 || len(x.guide) > burstTableCap+1 {
		t.Errorf("tables sized by T: len(thr)=%d len(guide)=%d, cap %d", len(x.thr), len(x.guide), burstTableCap)
	}
	// One sample draws ~1e7 gaps; the run checks ctx between samples.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := RunExactCtx(ctx, x, Protocol{Batches: 1000, BatchSize: 1, Level: 0.9})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("run at T=1e9 past its deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestExactTinyP: when P is so small that a gap overflows an int (below
// ~4e-18), a task still suffers no burst and a sample still returns.
func TestExactTinyP(t *testing.T) {
	for _, p := range []float64{1e-20, 1e-300, 5e-324} {
		x := newBurstExact(t, 100, p)
		for i := 0; i < 1000; i++ {
			if s := x.Sample(); s.TotalBursts != 0 {
				t.Fatalf("P=%v: sample %d has %d bursts, want 0", p, i, s.TotalBursts)
			}
		}
	}
}
