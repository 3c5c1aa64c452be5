package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// sweepQueueLen bounds the seeded job queue of one run; a run that
// exhausts it fails rather than reporting a short phase.
const sweepQueueLen = 20000

// warmSweepJobs is the fixed set of jobs a sweep process runs before its
// first timed job: the same on every seed, so set-up does the same work.
func warmSweepJobs() []sweepJob { return buildSweepJobs(1, 48) }

// warmSweep is the sweep set-up a fresh planner process pays: it runs the
// warm-up jobs once.
func warmSweep() error {
	ctx := context.Background()
	for _, j := range warmSweepJobs() {
		r, err := runSweepJob(ctx, j, nil)
		if err != nil {
			return err
		}
		if r.failed > 0 {
			return fmt.Errorf("warm-up job %s failed %d points: %v", j.shape, r.failed, r.firstErr)
		}
	}
	return nil
}

// timeSweepSetup starts a fresh process that runs the sweep warm-up and
// returns how long it took to report ready.
func timeSweepSetup() (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	t := time.Now()
	cmd := exec.Command(exe, "warm-sweep")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	took := time.Since(t)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("sweep set-up process: %w", err)
	}
	if rerr != nil || strings.TrimSpace(line) != "ready" {
		return 0, fmt.Errorf("sweep set-up process: %q %v", line, rerr)
	}
	return took, nil
}

// sweepRun is one phase of sweep_batch: its jobs, in queue order, and the
// oracle's tally.
type sweepRun struct {
	res    []jobResult
	busy   time.Duration // summed job wall time
	failed int
	first  error
	replay replayInput
}

// sweepPhase runs queued jobs back to back, starting at job first, until
// the jobs' summed wall time reaches d. Between jobs, outside the timed
// part, the oracle checks a seeded sample of each job's points; the
// answers are then dropped, except the first grid points, kept for the
// replayed layers.
func sweepPhase(seed uint64, jobs []sweepJob, first int, d time.Duration, rec *recorder) (sweepRun, error) {
	ctx := context.Background()
	var run sweepRun
	for k := first; run.busy < d; k++ {
		if k == len(jobs) {
			return run, fmt.Errorf("sweep queue of %d jobs exhausted", len(jobs))
		}
		r, err := runSweepJob(ctx, jobs[k], rec)
		if err != nil {
			return run, fmt.Errorf("sweep job %d (%s): %w", k, jobs[k].shape, err)
		}
		r.job = k
		run.busy += r.wall
		err = verifySweepJob(seed, jobs[k], r)
		if err == nil && r.failed > 0 {
			err = fmt.Errorf("job %d (%s): %d points or cells failed: %v", k, jobs[k].shape, r.failed, r.firstErr)
		}
		if err != nil {
			run.failed++
			if run.first == nil {
				run.first = err
			}
		}
		if err := run.replay.addGrid(r.grid); err != nil {
			return run, err
		}
		r.grid, r.cells = nil, nil
		run.res = append(run.res, r)
	}
	return run, nil
}

func (run sweepRun) points() int {
	n := 0
	for _, r := range run.res {
		n += r.points
	}
	return n
}

// dedupShare is the share of points the sweep engine's dedup cache
// answered: the repeated-input share of this workload.
func (run sweepRun) dedupShare() float64 {
	n := 0
	for _, r := range run.res {
		n += r.deduped
	}
	return ratio(float64(n), float64(run.points()))
}

func (run sweepRun) wallsMS() []float64 {
	out := make([]float64, len(run.res))
	for i, r := range run.res {
		out[i] = float64(r.wall.Nanoseconds()) / 1e6
	}
	return out
}

// sweepSegment is how many consecutive jobs of the untraced phase make one
// segment: whole rotations of the mix, so every segment holds the same
// shapes in the same order.
const sweepSegment = 5 * sweepPeriod

// segments splits the phase into whole segments and returns each one's
// median job time in ms, jobs per second and points per second of job
// time. The run's figures are medians over segments: the host's speed
// changes for seconds at a time, and a median over segments follows the
// speed the host had for most of the run, where a whole-run mean moves with
// how long each state lasted.
func (run sweepRun) segments() (p50s, jobsPS, pointsPS []float64) {
	for s := 0; s+sweepSegment <= len(run.res); s += sweepSegment {
		var busy time.Duration
		points := 0
		walls := make([]float64, 0, sweepSegment)
		for _, r := range run.res[s : s+sweepSegment] {
			busy += r.wall
			points += r.points
			walls = append(walls, float64(r.wall.Nanoseconds())/1e6)
		}
		p50s = append(p50s, median(walls))
		jobsPS = append(jobsPS, sweepSegment/busy.Seconds())
		pointsPS = append(pointsPS, float64(points)/busy.Seconds())
	}
	return p50s, jobsPS, pointsPS
}

// shapeNote summarizes job wall times per job shape.
func (run sweepRun) shapeNote(jobs []sweepJob) string {
	by := map[string][]float64{}
	for _, r := range run.res {
		s := jobs[r.job].shape
		by[s] = append(by[s], float64(r.wall.Nanoseconds())/1e6)
	}
	var parts []string
	for _, s := range sortedKeys(by) {
		v := by[s]
		parts = append(parts, fmt.Sprintf("%s %d jobs p10/p50/p90 %.2f/%.2f/%.2f ms", s, len(v),
			quantile(v, 0.1), median(v), quantile(v, 0.9)))
	}
	return "sweep jobs: " + strings.Join(parts, "; ")
}

// runSweep measures sweep_batch: the offline planner, in this process, with
// no HTTP. Each job runs with nproc sweep workers; jobs run back to back.
// Untraced: set up setupReps times in fresh processes, then one timed
// phase. Traced: an untraced and a traced phase, the frontier probe spans,
// the memo counters and the replayed layers.
func runSweep(seed uint64, d time.Duration, traced bool) (*report, error) {
	rep := newReport()
	o, err := newOracle()
	if err != nil {
		return nil, err
	}
	rep.refErr = checkRef(func(env []byte) ([]byte, error) { return o.answer(beAnalytic, env) })
	jobs := buildSweepJobs(seed, sweepQueueLen)

	if !traced {
		var setups []float64
		for k := 0; k < setupReps; k++ {
			took, err := timeSweepSetup()
			if err != nil {
				return nil, err
			}
			setups = append(setups, took.Seconds())
		}
		rep.set("setup_s", median(setups))
		rep.note("setup_s samples %v", setups)
		if err := warmSweep(); err != nil {
			return nil, err
		}
		m0 := readMemo()
		run, err := sweepPhase(seed, jobs, 0, d, nil)
		if err != nil {
			return nil, err
		}
		m := readMemo().sub(m0)
		_, rss := selfUsage()
		walls := run.wallsMS()
		p99, windows := windowedP99(walls)
		p50s, jobsPS, pointsPS := run.segments()
		if len(p50s) == 0 {
			return nil, fmt.Errorf("sweep phase ran %d jobs, fewer than one segment of %d", len(run.res), sweepSegment)
		}
		rep.set("p50_ms", median(p50s))
		rep.set("p99_ms", p99)
		rep.set("capacity_qps", median(jobsPS))
		rep.set("points_per_s", median(pointsPS))
		rep.note("job wall time: median over %d segments of %d jobs; whole-phase p50 %.4f ms, %.2f jobs/s, %.1f points/s; %d p99 windows, whole-phase p99 %.4f ms",
			len(p50s), sweepSegment, quantile(walls, 0.5), float64(len(run.res))/run.busy.Seconds(),
			float64(run.points())/run.busy.Seconds(), windows, quantile(walls, 0.99))
		rep.set("rss_mb", float64(rss)/1024)
		rep.note("sweep: %d jobs, %d points in %v of job time with %d workers; %d jobs beyond p99",
			len(run.res), run.points(), run.busy.Round(time.Millisecond), runtime.NumCPU(),
			len(run.res)-int(math.Ceil(0.99*float64(len(run.res)))))
		rep.note("%s", run.shapeNote(jobs))
		rep.note("input properties (sweep_batch): cache-hit share %.4f (the engine's dedup cache), forward share 0, kernel-memo hit share %.4f (%d lookups), distinct-envelope share %.4f; poisson-binomial memo hit share %.4f",
			run.dedupShare(), ratio(float64(m.th), float64(m.th+m.tm)), m.th+m.tm, 1-run.dedupShare(),
			ratio(float64(m.ph), float64(m.ph+m.pm)))
		rep.phases = append(rep.phases, phaseCount{name: "sweep", attempted: len(run.res), failed: run.failed, first: run.first})
		return rep, nil
	}

	if err := warmSweep(); err != nil {
		return nil, err
	}
	plain, err := sweepPhase(seed, jobs, 0, d*4/10, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	m0 := readMemo()
	run, err := sweepPhase(seed, jobs, len(plain.res), d*6/10, rec)
	if err != nil {
		return nil, err
	}
	m := readMemo().sub(m0)
	p50Plain, p50Traced := median(plain.wallsMS()), median(run.wallsMS())
	rep.set("trace.overhead_pct", 100*(p50Traced-p50Plain)/p50Plain)
	rep.note("tracing overhead: job p50 %.4f ms untraced, %.4f ms traced", p50Plain, p50Traced)

	var gridNS, gridPoints, evals, dense, frontJobs int64
	var frontSelf []float64
	probeUS := map[string][]float64{}
	for _, r := range run.res {
		if jobs[r.job].front.Base == nil {
			gridNS += r.wall.Nanoseconds()
			gridPoints += int64(r.points)
			continue
		}
		frontJobs++
		evals += int64(r.stats.Evaluations)
		dense += int64(r.stats.DenseEvaluations)
		frontSelf = append(frontSelf, float64(r.wall.Nanoseconds()-r.probeNS)/1e3)
		for _, s := range r.probes {
			name := "solve.miss_us." + strings.TrimPrefix(s.Name, "solve.miss.")
			probeUS[name] = append(probeUS[name], float64(s.dur())/1e3)
		}
	}
	rep.setMissUS(probeUS)
	for _, name := range sortedKeys(probeUS) {
		v := probeUS[name]
		rep.note("%s: %d frontier probe spans, median %.1f us", name, len(v), median(v))
	}
	rep.zero(servedOnly...)
	rep.zero(peerCounters...)
	// Worker-time per grid point: each job keeps nproc workers busy.
	workers := float64(runtime.NumCPU())
	rep.set("solve.sweep_point_us", ratio(float64(gridNS)*workers, float64(gridPoints))/1e3)
	rep.set("solve.frontier_evals", ratio(float64(evals), float64(frontJobs)))
	rep.set("solve.frontier_dense_per_probe", ratio(float64(dense), float64(evals)))
	rep.set("solve.frontier_self_us", median(frontSelf))
	rep.set("core.tables_hit_ratio", ratio(float64(m.th), float64(m.th+m.tm)))
	rep.set("core.pb_hit_ratio", ratio(float64(m.ph), float64(m.ph+m.pm)))
	rep.set("loadgen.samples", float64(len(run.res)))
	rep.set("input.hit_share", run.dedupShare())
	rep.set("input.distinct_share", 1-run.dedupShare())
	rep.note("sweep traced: %d jobs in %v of job time; %d grid points; %d frontier jobs, %d probes vs %d dense",
		len(run.res), run.busy.Round(time.Millisecond), gridPoints, frontJobs, evals, dense)
	rep.note("%s", run.shapeNote(jobs))

	rep.phases = append(rep.phases,
		phaseCount{name: "sweep_untraced", attempted: len(plain.res), failed: plain.failed, first: plain.first},
		phaseCount{name: "sweep_traced", attempted: len(run.res), failed: run.failed, first: run.first})
	rp, err := replay(seed, run.replay)
	if err != nil {
		return nil, err
	}
	rp.apply(rep)
	return rep, nil
}
