package sim

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"feasim/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens from the current code")

// streamCase is one point of the stream-pin grid: the exact simulator at
// task demand T, request probability P and W workstations, seeded with Seed.
type streamCase struct {
	T    int
	P    float64
	W    int
	Seed uint64
}

// streamCases spans the sampler's regimes: P near 0 and near 1 (and the
// degenerate P = 1, which draws nothing), T = 1, T = 100 (the served
// operating point, P = 1/90) and T ≥ 10⁵, where a task's remaining demand
// exceeds any bounded table.
var streamCases = []streamCase{
	{T: 1, P: 1e-6, W: 4, Seed: 1},
	{T: 1, P: 0.5, W: 4, Seed: 2},
	{T: 1, P: 0.999, W: 4, Seed: 3},
	{T: 100, P: 1e-6, W: 3, Seed: 4},
	{T: 100, P: 1.0 / 90, W: 10, Seed: 5},
	{T: 100, P: 0.3, W: 2, Seed: 6},
	{T: 100, P: 0.999, W: 3, Seed: 7},
	{T: 100, P: 1, W: 2, Seed: 8},
	{T: 100_000, P: 1e-6, W: 2, Seed: 9},
	{T: 200_000, P: 1e-4, W: 4, Seed: 10},
	{T: 100_000, P: 0.05, W: 1, Seed: 11},
}

// streamSamples is the number of JobSamples pinned per case; streamHead of
// them are written out verbatim, the rest enter the case's digest only.
const (
	streamSamples = 2000
	streamHead    = 8
)

// formatSample renders a JobSample with every float bit preserved.
func formatSample(s JobSample) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf("%s %s %d %d", g(s.JobTime), g(s.MeanTask), s.MaxBursts, s.TotalBursts)
}

// renderStream draws every case's first streamSamples JobSamples and
// renders the golden text: per case, a header carrying the SHA-256 of all
// samples (one formatSample line each) and the first streamHead samples.
func renderStream(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	out.WriteString("# Exact-simulator JobSample streams: T P W seed, the SHA-256 of the first\n")
	fmt.Fprintf(&out, "# %d samples (\"JobTime MeanTask MaxBursts TotalBursts\\n\" each), then the first %d.\n",
		streamSamples, streamHead)
	for _, c := range streamCases {
		p := core.Params{J: float64(c.T * c.W), W: c.W, O: 10, P: c.P}
		x, err := NewExact(p, c.Seed)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var head []string
		for i := 0; i < streamSamples; i++ {
			line := formatSample(x.Sample())
			fmt.Fprintln(h, line)
			if i < streamHead {
				head = append(head, line)
			}
		}
		fmt.Fprintf(&out, "T=%d P=%v W=%d seed=%d sha256=%x\n", c.T, c.P, c.W, c.Seed, h.Sum(nil))
		for _, line := range head {
			fmt.Fprintf(&out, "  %s\n", line)
		}
	}
	return out.Bytes()
}

// TestExactStreamGolden pins the exact simulator's random streams: any
// change to how a burst count is drawn — even one that keeps the sampled
// distribution — changes these bytes. Regenerate (only for an intended
// stream change) with:
//
//	go test ./internal/sim -run '^TestExactStreamGolden$' -update
func TestExactStreamGolden(t *testing.T) {
	got := renderStream(t)
	path := filepath.Join("testdata", "exact_stream.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("exact-sim stream changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
