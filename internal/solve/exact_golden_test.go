package solve

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"feasim/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens from the current code")

// exactGoldenEnvelopes are exact-backend queries at and around the served
// operating point (J 1000, W 10, O 10), one line each in the golden.
var exactGoldenEnvelopes = []string{
	`{"kind":"report","scenario":{"j":1000,"w":10,"o":10,"util":0.1,"seed":1}}`,
	`{"kind":"report","scenario":{"j":1000,"w":10,"o":10,"util":0.05,"deadline":150,"target_eff":0.8,"seed":2}}`,
	`{"kind":"report","scenario":{"j":1000,"w":10,"o":10,"util":0.15,"seed":3}}`,
	`{"kind":"threshold","w":10,"o":10,"util":0.1,"target_eff":0.8,"seed":4}`,
	`{"kind":"threshold","w":10,"o":10,"util":0.137,"target_eff":0.8,"seed":5}`,
	`{"kind":"distribution","scenario":{"j":1000,"w":10,"o":10,"util":0.1,"seed":6},"deadlines":[150]}`,
	`{"kind":"distribution","scenario":{"j":1000,"w":10,"o":10,"util":0.062,"seed":7},"quantiles":[0.5,0.99],"deadlines":[120,150]}`,
}

// TestExactAnswersGolden pins the exact backend's answer bytes (the
// Elapsed-scrubbed encoding a cache hit replays) at the 5×100 protocol the
// served benchmark uses. Together with the sim package's stream golden this
// makes any change to the simulator's random streams visible. Regenerate
// (only for an intended stream change) with:
//
//	go test ./internal/solve -run '^TestExactAnswersGolden$' -update
func TestExactAnswersGolden(t *testing.T) {
	x := ExactSim{Protocol: sim.Protocol{Batches: 5, BatchSize: 100, Level: 0.90}}
	var got bytes.Buffer
	for _, env := range exactGoldenEnvelopes {
		q, err := ParseQuery([]byte(env))
		if err != nil {
			t.Fatal(err)
		}
		a, err := x.Answer(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", env, err)
		}
		got.Write(encodeAnswer(a))
		got.WriteByte('\n')
	}
	path := filepath.Join("testdata", "exact_answers.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("exact-backend answers changed:\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}
