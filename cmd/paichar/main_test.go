package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	pai "repro"
)

func TestRunSynthetic(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-jobs", "400"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Workload constitution", "Execution-time breakdown",
		"AllReduce-Local", "Hardware sweep for PS/Worker", "most sensitive resource"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunFromTraceFile(t *testing.T) {
	p := pai.DefaultTraceParams()
	p.NumJobs = 200
	tr, err := pai.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	path := writeTrace(t, t.TempDir(), "t.json", tr, "json")
	var buf bytes.Buffer
	if err := run([]string{"-trace", path, "-class", "1w1g"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Hardware sweep for 1w1g") {
		t.Error("missing 1w1g sweep")
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-trace", "/does/not/exist.json"}, &buf); err == nil {
		t.Error("expected error for missing trace")
	}
	if err := run([]string{"-jobs", "200", "-class", "Nope"}, &buf); err == nil {
		t.Error("expected error for unknown class")
	}
	if err := run([]string{"-jobs", "200", "-class", "AllReduce-Local"}, &buf); err == nil {
		t.Error("expected error for class with no jobs in trace")
	}
	// A streamed trace without the sweep class fails the same way.
	p := pai.DefaultTraceParams()
	p.NumJobs = 200
	tr, err := pai.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	ndPath := writeTrace(t, t.TempDir(), "t.ndjson", tr, "ndjson")
	err = run([]string{"-trace", ndPath, "-class", "AllReduce-Local"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "no AllReduce-Local jobs") {
		t.Errorf("NDJSON trace without the sweep class: want a no-jobs error, got %v", err)
	}
	if err := run([]string{"-badflag"}, &buf); err == nil {
		t.Error("expected error for unknown flag")
	}
	if err := run([]string{"-jobs", "0"}, &buf); err == nil {
		t.Error("expected error for zero jobs")
	}
}

// TestRunMultiTraceShards: repeated -trace flags drain NDJSON shards
// concurrently and fold them into one characterization.
func TestRunMultiTraceShards(t *testing.T) {
	p := pai.DefaultTraceParams()
	p.NumJobs = 900
	tr, err := pai.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths := []string{}
	third := len(tr.Jobs) / 3
	for i := 0; i < 3; i++ {
		part := &pai.Trace{Jobs: tr.Jobs[i*third : (i+1)*third]}
		paths = append(paths, writeTrace(t, dir, fmt.Sprintf("shard%d.ndjson", i), part, "ndjson"))
	}
	var buf bytes.Buffer
	args := []string{"-cache", "1024"}
	for _, p := range paths {
		args = append(args, "-trace", p)
	}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "900 jobs over 3 trace shards") {
		t.Errorf("missing sharded constitution header:\n%s", out)
	}
	if !strings.Contains(out, "shard 2: 300 jobs") {
		t.Errorf("missing per-shard counts:\n%s", out)
	}
	if !strings.Contains(out, "result cache:") {
		t.Errorf("missing cache stats line:\n%s", out)
	}
	// Streaming mode now covers every report section: CDF sketches,
	// the projection study, and the hardware sweep.
	if !strings.Contains(out, "Weights-traffic time fraction CDFs") {
		t.Errorf("missing CDF section:\n%s", out)
	}
	if !strings.Contains(out, "PS -> AllReduce-Local:") {
		t.Errorf("missing projection section:\n%s", out)
	}
	if !strings.Contains(out, "Hardware sweep for PS/Worker:") || !strings.Contains(out, "most sensitive resource:") {
		t.Errorf("missing hardware sweep section:\n%s", out)
	}
}

// paicharGoldenSHA256 is the SHA-256 of the report for the default
// 800-job trace read from NDJSON with -par 2.
const paicharGoldenSHA256 = "a392c3ccd3a58cb96f95d3862817af0c727becd17baee50d1d427d49a7372b60"

// writeTrace writes tr into dir/name in the named trace codec ("json" for
// the whole-document form) and returns the path.
func writeTrace(t *testing.T, dir, name string, tr *pai.Trace, format string) string {
	t.Helper()
	var buf bytes.Buffer
	if format == "json" {
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	} else {
		w, err := pai.NewTraceWriter(&buf, format)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range tr.Jobs {
			if err := w.Write(j); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunInputsMatchGolden: the NDJSON report matches its golden hash, and
// the same trace generated in process, read from whole-document JSON, or
// read from colbin renders the same bytes.
func TestRunInputsMatchGolden(t *testing.T) {
	p := pai.DefaultTraceParams()
	p.NumJobs = 800
	tr, err := pai.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	render := func(args ...string) string {
		t.Helper()
		var buf bytes.Buffer
		if err := run(append(args, "-par", "2"), &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := render("-trace", writeTrace(t, dir, "t.ndjson", tr, "ndjson"))
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(want))); got != paicharGoldenSHA256 {
		t.Errorf("NDJSON report sha256 %s, want %s:\n%s", got, paicharGoldenSHA256, want)
	}
	for name, args := range map[string][]string{
		"generated": {"-jobs", "800"},
		"json":      {"-trace", writeTrace(t, dir, "t.json", tr, "json")},
		"colbin":    {"-trace", writeTrace(t, dir, "t.bin", tr, "colbin")},
	} {
		if got := render(args...); got != want {
			t.Errorf("%s input renders differently from NDJSON:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// TestRunMultiTraceRejectsWholeDocument: sharded mode streams record
// codecs only; a whole-document JSON shard is rejected by sniffed content,
// not file extension (the extensions here are deliberately meaningless).
func TestRunMultiTraceRejectsWholeDocument(t *testing.T) {
	p := pai.DefaultTraceParams()
	p.NumJobs = 60
	tr, err := pai.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	nd := writeTrace(t, dir, "a.trace", tr, "ndjson")
	doc := writeTrace(t, dir, "b.trace", tr, "json")
	var buf bytes.Buffer
	err = run([]string{"-trace", nd, "-trace", doc}, &buf)
	if err == nil || !strings.Contains(err.Error(), "whole-document JSON") {
		t.Errorf("want whole-document rejection, got %v", err)
	}
}

// TestRunColbinTraceStreams: a columnar trace is sniffed (no telling
// extension) and characterized through the streaming pipeline.
func TestRunColbinTraceStreams(t *testing.T) {
	p := pai.DefaultTraceParams()
	p.NumJobs = 500
	tr, err := pai.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	path := writeTrace(t, t.TempDir(), "t.bin", tr, "colbin")
	var buf bytes.Buffer
	if err := run([]string{"-trace", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "500 jobs, streamed") {
		t.Errorf("colbin trace did not stream:\n%s", buf.String())
	}
}
