package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table I", "Fig. 16", "EXT-1", "EXT-6"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestRunOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-jobs", "300", "-only", "table1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "11 TFLOPs") {
		t.Errorf("Table I output wrong:\n%s", buf.String())
	}
}

func TestRunUnknownArtifact(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-jobs", "300", "-only", "fig99"}, &buf); err == nil {
		t.Error("expected error for unknown artifact")
	}
}

func TestRunBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-nope"}, &buf); err == nil {
		t.Error("expected error for unknown flag")
	}
}

// reproGoldenSHA256 is the SHA-256 of `repro -jobs 3000 -ext`: every table,
// figure and extension over the default 3000-job trace.
const reproGoldenSHA256 = "f729209190eb11f27043e3ae82d496ae90dd36554d414961610b3e9c7c4895ca"

// TestRunGolden pins the full output, which must not depend on the
// evaluation worker count.
func TestRunGolden(t *testing.T) {
	for _, par := range []string{"1", "4"} {
		var buf bytes.Buffer
		if err := run([]string{"-jobs", "3000", "-ext", "-par", par}, &buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != reproGoldenSHA256 {
			t.Errorf("-par %s: output sha256 %s, want %s", par, got, reproGoldenSHA256)
		}
	}
}
