// Package sim reproduces the paper's simulation study (Section 2.2). Two
// engines are provided:
//
//   - Exact simulates the discrete-time model precisely as analyzed: owner
//     interruption opportunities occur after each unit of task progress with
//     probability P, each burst costs exactly O, and the task is guaranteed
//     one unit of progress between bursts. Its purpose — as in the paper —
//     is to validate the analysis: its estimates must fall within tight
//     confidence intervals of the analytic E_t and E_j.
//
//   - General drops the model's optimistic assumptions (the paper's three
//     "simplifying assumptions" in Section 2.1 and the future work of
//     Section 2.2): owner think times elapse in wall-clock time rather than
//     task progress (so the one-unit-progress guarantee disappears), owner
//     demands and task demands may follow any distribution, and stations may
//     be heterogeneous. It runs on the des engine with preemptive-priority
//     workstations.
//
// Output analysis follows the paper: batch means with 20 batches of 1000
// samples and 90% confidence intervals, targeting ≤1% relative half-width.
package sim

import (
	"fmt"
	"math"

	"feasim/internal/core"
	"feasim/internal/rng"
)

// JobSample is one simulated execution of the parallel job.
type JobSample struct {
	JobTime     float64 // time until the last task completes
	MeanTask    float64 // mean task completion time over the W tasks
	MaxBursts   int     // owner bursts suffered by the slowest task
	TotalBursts int     // owner bursts over all tasks
}

// Exact is the discrete-time simulator of the analyzed model.
type Exact struct {
	p      core.Params
	trials int
	stream *rng.Stream

	// The burst sampler's tables (see nextGap). lq is log1p(-P); thr[k] is
	// P(gap ≤ k) for k < len(thr), nondecreasing with thr[0] = 0; a uniform
	// u in bucket int(u·scale) has its gap at or after guide[bucket].
	lq    float64
	thr   []float64
	guide []int32
	scale float64
}

// burstTableCap bounds the threshold table, so NewExact allocates O(1)
// whatever T is; gaps longer than the table are drawn by the formula.
const burstTableCap = 2048

// guardRel is the relative half-width of the band around each threshold
// inside which a draw is decided by the inversion formula instead of the
// table. The formula and the tables are each within ~1e-15 of the exact
// values, so outside the band the two cannot disagree.
const guardRel = 1e-9

// NewExact builds the exact simulator for the given model parameters.
func NewExact(p core.Params, seed uint64) (*Exact, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	t := p.TaskDemand()
	trials := int(t + 0.5)
	if float64(trials) != t {
		return nil, fmt.Errorf("sim: exact simulator requires integral task demand, got T=%v", t)
	}
	x := &Exact{p: p, trials: trials, stream: rng.NewStream(seed)}
	if p.P > 0 && p.P < 1 && p.O != 0 {
		x.buildTables()
	}
	return x, nil
}

// buildTables fills thr up to min(T, burstTableCap) or the first k with
// thr[k] = 1, whichever is smallest, and the guide over [0, thr[top]].
func (x *Exact) buildTables() {
	x.lq = math.Log1p(-x.p.P)
	top := min(x.trials, burstTableCap)
	thr := make([]float64, 1, top+1)
	for k := 1; k <= top; k++ {
		// The running max keeps the table monotone even if expm1 is not.
		v := max(-math.Expm1(float64(k)*x.lq), thr[k-1])
		thr = append(thr, v)
		if v == 1 {
			break
		}
	}
	top = len(thr) - 1
	x.scale = float64(top) / thr[top]
	if math.IsInf(x.scale, 0) {
		// P is so small (denormal) that the guide's scale overflows. Keep
		// only thr[0], so every draw takes the formula; the table would
		// decide almost none of them anyway.
		x.thr = thr[:1]
		return
	}
	// guide[i] is the smallest k ≥ 1 whose bucket is ≥ i: any u in bucket
	// i has thr[k] < u for every k below it, because bucketing is monotone.
	x.guide = make([]int32, top+1)
	k := 1
	for i := range x.guide {
		for k < top && int(thr[k]*x.scale) < i {
			k++
		}
		x.guide[i] = int32(k)
	}
	x.thr = thr
}

// Params returns the simulated model parameters.
func (x *Exact) Params() core.Params { return x.p }

// taskBursts samples the number of owner bursts suffered by one task:
// Binomial(trials, P) drawn as geometric gaps between owner requests, which
// costs O(expected bursts) instead of O(T) per task.
func (x *Exact) taskBursts() int {
	if x.p.P <= 0 || x.p.O == 0 {
		return 0
	}
	if x.p.P >= 1 {
		return x.trials // every gap is one unit; nothing is drawn
	}
	n := 0
	for left := x.trials; ; n++ {
		g, ok := x.nextGap(x.stream.Float64(), left)
		if !ok {
			return n
		}
		left -= g
	}
}

// nextGap maps a uniform u to the geometric gap ceil(log1p(-u)/log1p(-P))
// (at least 1) — the next owner request, counted in units of progress — or
// reports ok = false when that gap is longer than the left units of the
// task. The gap is the smallest k with u ≤ thr[k]; the table answers it
// with compares, and the formula decides whenever u lies within guardRel
// of a deciding threshold or beyond the table, so every gap equals the
// formula's bit for bit.
func (x *Exact) nextGap(u float64, left int) (int, bool) {
	c := min(left, len(x.thr)-1)
	t := x.thr[c]
	switch {
	case u > t*(1+guardRel): // gap > c
		if c == left {
			return 0, false
		}
		return x.formulaGap(u, left)
	case u >= t*(1-guardRel):
		return x.formulaGap(u, left)
	}
	k := int(x.guide[int(u*x.scale)])
	for u > x.thr[k] {
		k++
	}
	if u >= x.thr[k]*(1-guardRel) || u <= x.thr[k-1]*(1+guardRel) {
		return x.formulaGap(u, left)
	}
	return k, true
}

// formulaGap is nextGap by inversion: the gap is compared as a float, so a
// gap too long for an int (P below ~1e-17) still ends the task.
func (x *Exact) formulaGap(u float64, left int) (int, bool) {
	g := max(math.Ceil(math.Log1p(-u)/x.lq), 1)
	if g > float64(left) {
		return 0, false
	}
	return int(g), true
}

// Sample runs one job execution.
func (x *Exact) Sample() JobSample {
	t := x.p.TaskDemand()
	maxB, totB := 0, 0
	var sumTask float64
	for w := 0; w < x.p.W; w++ {
		b := x.taskBursts()
		totB += b
		if b > maxB {
			maxB = b
		}
		sumTask += t + float64(b)*x.p.O
	}
	return JobSample{
		JobTime:     t + float64(maxB)*x.p.O,
		MeanTask:    sumTask / float64(x.p.W),
		MaxBursts:   maxB,
		TotalBursts: totB,
	}
}

// SampleStepwise runs one job execution by walking every unit of task
// progress and flipping the owner coin at each, exactly as the model is
// described — an O(T·W) reference implementation used by tests to validate
// the gap sampler.
func (x *Exact) SampleStepwise() JobSample {
	t := x.p.TaskDemand()
	maxB, totB := 0, 0
	var sumTask float64
	for w := 0; w < x.p.W; w++ {
		b := 0
		for unit := 0; unit < x.trials; unit++ {
			if x.stream.Float64() < x.p.P {
				b++
			}
		}
		totB += b
		if b > maxB {
			maxB = b
		}
		sumTask += t + float64(b)*x.p.O
	}
	return JobSample{
		JobTime:     t + float64(maxB)*x.p.O,
		MeanTask:    sumTask / float64(x.p.W),
		MaxBursts:   maxB,
		TotalBursts: totB,
	}
}
