package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"

	"feasim/internal/solve"
)

// oracle holds the answer the in-process library gives for each item, in
// canonical form, computed once per distinct envelope.
type oracle struct {
	solvers map[string]solve.Solver
	mu      sync.Mutex
	want    map[int][]byte
	errs    map[int]error
}

func newOracle() (*oracle, error) {
	o := &oracle{solvers: map[string]solve.Solver{}, want: map[int][]byte{}, errs: map[int]error{}}
	for _, name := range solve.Backends() {
		sv, err := solve.NewSolver(name, serverOptions())
		if err != nil {
			return nil, err
		}
		o.solvers[name] = sv
	}
	return o, nil
}

// canonical re-encodes a JSON answer with its elapsed_ns stamps removed
// and object keys sorted; numbers keep the digits they were written with.
func canonical(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return json.Marshal(scrub(v))
}

func scrub(v any) any {
	switch t := v.(type) {
	case map[string]any:
		delete(t, "elapsed_ns")
		for k, x := range t {
			t[k] = scrub(x)
		}
	case []any:
		for i, x := range t {
			t[i] = scrub(x)
		}
	}
	return v
}

// answer computes the library's answer to env on backend, canonicalized.
func (o *oracle) answer(backend string, env []byte) ([]byte, error) {
	q, err := solve.ParseQuery(env)
	if err != nil {
		return nil, err
	}
	sv, ok := o.solvers[backend]
	if !ok {
		return nil, fmt.Errorf("oracle: unknown backend %q", backend)
	}
	a, err := sv.Answer(context.Background(), q)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(a)
	if err != nil {
		return nil, err
	}
	return canonical(raw)
}

// prime computes the expected answers of the given items on nproc workers.
func (o *oracle) prime(items []item, idx []int) {
	todo := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range todo {
				want, err := o.answer(items[i].Backend, items[i].Env)
				o.mu.Lock()
				o.want[i], o.errs[i] = want, err
				o.mu.Unlock()
			}
		}()
	}
	for _, i := range idx {
		o.mu.Lock()
		_, done := o.want[i]
		_, failed := o.errs[i]
		o.mu.Unlock()
		if !done && !failed {
			todo <- i
		}
	}
	close(todo)
	wg.Wait()
}

// wireAnswer is the slice of the /v1/query and /v1/batch item shapes the
// oracle reads.
type wireAnswer struct {
	Status  int             `json:"status"`
	Kind    string          `json:"kind"`
	Backend string          `json:"backend"`
	Answer  json.RawMessage `json:"answer"`
	Error   string          `json:"error"`
}

type wireBatch struct {
	Backend string       `json:"backend"`
	Items   []wireAnswer `json:"items"`
}

// verifier checks responses against the oracle. seen memoizes answers
// already found equal, keyed by item and raw bytes: a hot workload repeats
// the same bytes thousands of times.
type verifier struct {
	o     *oracle
	items []item
	seen  map[string]bool
}

// check verifies one response to r and returns an error naming the first
// mismatch.
func (v *verifier) check(r request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	backend := v.items[r.Items[0]].Backend
	var answers []wireAnswer
	if r.Batch {
		var b wireBatch
		if err := json.Unmarshal(body, &b); err != nil {
			return fmt.Errorf("bad batch body: %w", err)
		}
		if b.Backend != backend || len(b.Items) != len(r.Items) {
			return fmt.Errorf("batch answered %d items by %q, want %d by %q", len(b.Items), b.Backend, len(r.Items), backend)
		}
		answers = b.Items
	} else {
		var a wireAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return fmt.Errorf("bad body: %w", err)
		}
		if a.Backend != backend {
			return fmt.Errorf("answered by %q, want %q", a.Backend, backend)
		}
		a.Status = http.StatusOK
		answers = []wireAnswer{a}
	}
	for k, a := range answers {
		i := r.Items[k]
		if a.Status != http.StatusOK {
			return fmt.Errorf("item %d: status %d: %s", k, a.Status, a.Error)
		}
		key := fmt.Sprintf("%d|%s", i, a.Answer)
		if v.seen[key] {
			continue
		}
		if err := v.o.errs[i]; err != nil {
			return fmt.Errorf("item %d: oracle: %w", k, err)
		}
		got, err := canonical(a.Answer)
		if err != nil {
			return fmt.Errorf("item %d: bad answer: %w", k, err)
		}
		if want := v.o.want[i]; !bytes.Equal(got, want) {
			return fmt.Errorf("item %d (%s): answer differs from the library's:\n got %.300s\nwant %.300s", k, v.items[i].Env, got, want)
		}
		v.seen[key] = true
	}
	return nil
}

// verify checks every result of a phase and returns the number that failed
// (transport error, non-200, or an answer unequal to the library's), with
// the first failure for the report.
func verify(o *oracle, w *workload, reqs []request, res []result) (failed int, first error) {
	var idx []int
	for _, r := range res {
		idx = append(idx, reqs[r.req].Items...)
	}
	o.prime(w.items, idx)
	v := &verifier{o: o, items: w.items, seen: map[string]bool{}}
	for _, r := range res {
		err := r.err
		if err == nil {
			err = v.check(reqs[r.req], r.status, r.body)
		}
		if err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	return failed, first
}

// refCase is one pinned analytic answer of testdata/analytic_ref.json.
type refCase struct {
	Env    json.RawMessage `json:"env"`
	Answer json.RawMessage `json:"answer"`
}

//go:embed testdata/analytic_ref.json
var refJSON []byte

// refRelTol is the relative tolerance of the pinned analytic reference.
const refRelTol = 1e-9

// refEnvelopes are the pinned analytic envelopes: the analytic slice of
// the served_hot pool at seed 1.
func refEnvelopes() ([][]byte, error) {
	w, err := buildServed(wlServedHot, 1, 0, 0)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for _, it := range w.items {
		if it.Backend == beAnalytic && len(out) < 24 {
			out = append(out, it.Env)
		}
	}
	return out, nil
}

// loadRef returns the checked-in reference cases.
func loadRef() ([]refCase, error) {
	var cases []refCase
	if err := json.Unmarshal(refJSON, &cases); err != nil {
		return nil, fmt.Errorf("analytic reference: %w", err)
	}
	if len(cases) == 0 {
		return nil, fmt.Errorf("analytic reference is empty")
	}
	return cases, nil
}

// checkRef compares answers to the pinned reference at refRelTol. answer
// returns the canonical answer to one envelope (from the library, or from a
// node over HTTP).
func checkRef(answer func(env []byte) ([]byte, error)) error {
	cases, err := loadRef()
	if err != nil {
		return err
	}
	for _, c := range cases {
		got, err := answer(c.Env)
		if err != nil {
			return fmt.Errorf("reference %s: %w", c.Env, err)
		}
		if err := closeJSON(got, c.Answer, refRelTol); err != nil {
			return fmt.Errorf("reference %s: %w", c.Env, err)
		}
	}
	return nil
}

// closeJSON compares two JSON documents: equal structure and strings, and
// numbers equal within rel relative tolerance. elapsed_ns is ignored.
func closeJSON(a, b []byte, rel float64) error {
	var va, vb any
	if err := json.Unmarshal(a, &va); err != nil {
		return err
	}
	if err := json.Unmarshal(b, &vb); err != nil {
		return err
	}
	return closeValue("$", scrub(va), scrub(vb), rel)
}

func closeValue(path string, a, b any, rel float64) error {
	switch x := a.(type) {
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return fmt.Errorf("%s: object shape differs", path)
		}
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := closeValue(path+"."+k, x[k], y[k], rel); err != nil {
				return err
			}
		}
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return fmt.Errorf("%s: array shape differs", path)
		}
		for i := range x {
			if err := closeValue(fmt.Sprintf("%s[%d]", path, i), x[i], y[i], rel); err != nil {
				return err
			}
		}
	case float64:
		y, ok := b.(float64)
		if !ok || math.Abs(x-y) > rel*math.Max(math.Abs(x), math.Abs(y)) {
			return fmt.Errorf("%s: %v, want %v", path, a, b)
		}
	default:
		if a != b {
			return fmt.Errorf("%s: %v, want %v", path, a, b)
		}
	}
	return nil
}
