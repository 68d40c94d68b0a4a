package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	pai "repro"
)

// TestReportSectionsGolden pins the marshalled fidelity, cdf and projection
// sections paibench writes for a fixed-seed full report sink, so the
// builder paibench shares with paiserve cannot drift from the schema that
// benchdiff compares.
func TestReportSectionsGolden(t *testing.T) {
	p := pai.DefaultTraceParams()
	p.NumJobs = 1500
	p.Seed = 5
	tr, err := pai.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pai.New(pai.WithConfig(pai.BaselineConfig()))
	if err != nil {
		t.Fatal(err)
	}
	sink, err := eng.NewReportSink(pai.ToAllReduceLocal)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.EvaluateSource(context.Background(), pai.NewSliceJobSource(tr.Jobs),
		func(res pai.StreamResult) error { return sink.Add(res.Job, res.Times) }); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := finishFoldedResult(sink, &Result{}, "", &out); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"fidelity":   "70716adc7b67855cacccfe6cd466437ab0e6bce98a2148aeeb9ce5ebec5c550d",
		"cdf":        "94cb2fb8be7eb4839200420fcecb8a3f00b90e608295985d5e8bf7c17dfb3be2",
		"projection": "17d17ff00f9f3fc8c70ab7aacb93d8e09b79568344b03f998827432de80db375",
	}
	for k, w := range want {
		var c bytes.Buffer
		if err := json.Compact(&c, doc[k]); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		s := sha256.Sum256(c.Bytes())
		if got := hex.EncodeToString(s[:]); got != w {
			t.Errorf("%s: sha256 %s, want %s", k, got, w)
		}
	}
}
