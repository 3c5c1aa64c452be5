package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

func TestOracleRejectsCorruptedAnswer(t *testing.T) {
	o, err := newOracle()
	if err != nil {
		t.Fatal(err)
	}
	items := []item{
		{Backend: beAnalytic, Env: []byte(`{"kind":"report","scenario":{"j":1000,"w":10,"o":10,"util":0.05,"deadline":150,"target_eff":0.8}}`)},
		{Backend: beExact, Env: []byte(`{"kind":"threshold","w":10,"o":10,"util":0.1,"target_eff":0.8,"seed":3}`)},
	}
	o.prime(items, []int{0, 1})
	for i, it := range items {
		want := o.want[i]
		body := func(answer []byte) []byte {
			return []byte(fmt.Sprintf(`{"kind":"x","backend":%q,"cached":false,"elapsed_ns":987,"answer":%s}`, it.Backend, answer))
		}
		v := &verifier{o: o, items: items, seen: map[string]bool{}}
		r := request{Items: []int{i}}
		// The library's own bytes, with an elapsed stamp added, pass.
		var withElapsed map[string]any
		if err := json.Unmarshal(want, &withElapsed); err != nil {
			t.Fatal(err)
		}
		withElapsed["elapsed_ns"] = 12345
		good, _ := json.Marshal(withElapsed)
		if err := v.check(r, http.StatusOK, body(good)); err != nil {
			t.Fatalf("%s: correct answer rejected: %v", it.Env, err)
		}
		// Any changed digit of a number fails.
		bad := corruptFirstNumber(t, want)
		if err := v.check(r, http.StatusOK, body(bad)); err == nil {
			t.Errorf("%s: corrupted answer %s accepted", it.Env, bad)
		}
		if err := v.check(r, http.StatusInternalServerError, []byte(`{"error":"x"}`)); err == nil {
			t.Errorf("%s: a 500 passed the oracle", it.Env)
		}
		wrongBackend := bytes.Replace(body(good), []byte(`"backend":"`+it.Backend+`"`), []byte(`"backend":"des"`), 1)
		if err := v.check(r, http.StatusOK, wrongBackend); err == nil {
			t.Errorf("%s: an answer from another backend passed", it.Env)
		}
	}
}

// corruptFirstNumber bumps the last digit of the first non-zero number
// after the first colon of a JSON document.
func corruptFirstNumber(t *testing.T, doc []byte) []byte {
	t.Helper()
	s := string(doc)
	for i := strings.IndexByte(s, ':') + 1; i < len(s); i++ {
		if s[i] >= '1' && s[i] <= '9' {
			j := i
			for j+1 < len(s) && strings.IndexByte("0123456789", s[j+1]) >= 0 {
				j++
			}
			d := s[j]
			if d == '9' {
				d = '8'
			} else {
				d++
			}
			return []byte(s[:j] + string(d) + s[j+1:])
		}
	}
	t.Fatalf("no number in %s", doc)
	return nil
}

func TestCloseJSONTolerance(t *testing.T) {
	a := []byte(`{"x":1.0,"y":[2.0,{"z":3.0}],"s":"a","elapsed_ns":5}`)
	for _, tc := range []struct {
		b  string
		ok bool
	}{
		{`{"x":1.0000000000001,"y":[2.0,{"z":3.0}],"s":"a","elapsed_ns":9}`, true},
		{`{"x":1.000001,"y":[2.0,{"z":3.0}],"s":"a"}`, false},
		{`{"x":1.0,"y":[2.0,{"z":3.01}],"s":"a"}`, false},
		{`{"x":1.0,"y":[2.0],"s":"a"}`, false},
		{`{"x":1.0,"y":[2.0,{"z":3.0}],"s":"b"}`, false},
		{`{"x":1.0,"y":[2.0,{"z":3.0}]}`, false},
	} {
		if err := closeJSON([]byte(tc.b), a, refRelTol); (err == nil) != tc.ok {
			t.Errorf("closeJSON(%s) = %v, want ok=%v", tc.b, err, tc.ok)
		}
	}
}

// The checked-in reference is the library's answer at 1e-9 relative; a
// mismatch means an analytic answer changed, which a later change must
// explain (and regenerate with `perfbench refgen`).
func TestAnalyticReference(t *testing.T) {
	o, err := newOracle()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRef(func(env []byte) ([]byte, error) { return o.answer(beAnalytic, env) }); err != nil {
		t.Fatal(err)
	}
}
