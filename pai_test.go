package pai_test

import (
	"bytes"
	"testing"

	pai "repro"
)

func TestFacadeEndToEnd(t *testing.T) {
	eng, err := pai.New(pai.WithConfig(pai.BaselineConfig()))
	if err != nil {
		t.Fatal(err)
	}
	p := pai.DefaultTraceParams()
	p.NumJobs = 400
	trace, err := pai.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	// Characterize.
	c, err := pai.Constitute(trace.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalJobs != 400 {
		t.Errorf("TotalJobs = %d, want 400", c.TotalJobs)
	}
	acc, proj, sweep := foldReport(t, eng, trace.Jobs)
	if len(acc.Rows()) == 0 {
		t.Fatal("no breakdown rows")
	}
	overall, err := acc.Overall(pai.CNodeLevel)
	if err != nil {
		t.Fatal(err)
	}
	if overall[pai.CompWeights] <= 0 {
		t.Error("cNode-level weight share should be positive")
	}
	// Project.
	ps := pai.FilterClass(trace.Jobs, pai.PSWorker)
	sum, err := proj.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != len(ps) {
		t.Errorf("projection covered %d jobs, want %d", sum.N, len(ps))
	}
	// Sweep.
	panel, err := sweep.Panel("PS/Worker")
	if err != nil {
		t.Fatal(err)
	}
	if len(panel.Series) != 4 {
		t.Errorf("sweep panel has %d series, want 4", len(panel.Series))
	}
}

func TestFacadeTraceRoundTrip(t *testing.T) {
	p := pai.DefaultTraceParams()
	p.NumJobs = 50
	trace, err := pai.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := pai.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != 50 {
		t.Errorf("round trip lost jobs: %d", len(back.Jobs))
	}
}

func TestFacadeCaseStudies(t *testing.T) {
	if len(pai.CaseStudies()) != 6 || len(pai.CaseStudyNames()) != 6 {
		t.Error("expected six case studies")
	}
	cs, err := pai.LookupCaseStudy("GCN")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Features.Class != pai.PEARL {
		t.Error("GCN should deploy under PEARL")
	}
	if _, err := pai.LookupCaseStudy("nope"); err == nil {
		t.Error("expected error for unknown case study")
	}
}

func TestFacadeExperiments(t *testing.T) {
	suite, err := pai.NewExperimentSuite(300)
	if err != nil {
		t.Fatal(err)
	}
	a, err := suite.Run("Table I")
	if err != nil {
		t.Fatal(err)
	}
	if a.Text == "" {
		t.Error("empty artifact")
	}
	if len(pai.ExperimentIDs()) != 18 {
		t.Errorf("expected 18 artifacts, got %d", len(pai.ExperimentIDs()))
	}
	// Suite from an existing trace.
	p := pai.DefaultTraceParams()
	p.NumJobs = 100
	tr, err := pai.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := pai.NewExperimentSuiteFromTrace(pai.BaselineConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Fig5(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeZooBreakdown(t *testing.T) {
	eng, err := pai.New(pai.WithConfig(pai.TestbedConfig()))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range pai.CaseStudyNames() {
		cs, err := pai.LookupCaseStudy(name)
		if err != nil {
			t.Fatal(err)
		}
		bd, err := eng.Evaluate(cs.Features)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if bd.Total() <= 0 {
			t.Errorf("%s has non-positive step time", name)
		}
	}
}
