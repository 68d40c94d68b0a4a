// Command benchdiff gates CI on the streaming pipeline's benchmark results:
// it compares a fresh paibench result JSON against the checked-in golden
// baseline (BENCH_BASELINE.json) and exits non-zero when throughput
// regresses beyond the allowed fraction or the trace's aggregate statistics
// drift from the baseline.
//
// Usage:
//
//	benchdiff -baseline BENCH_BASELINE.json -current result.json \
//	          [-max-regress 0.20] [-share-tol 0.02] [-step-tol 0.05] \
//	          [-fidelity-only] [-assert EXPR ...]
//	benchdiff -smoke -current result.json -assert EXPR [-assert EXPR ...]
//
// -assert evaluates one comparison against the current result JSON, so CI
// smoke checks need no python: EXPR is `path OP value` with OP one of
// >, >=, <, <=, ==, != and path a dot-separated descent into the JSON
// (array elements by index, array length via a trailing `len` segment,
// booleans compared as 1/0). Examples:
//
//	-assert 'cache_hit_rate>0.5'
//	-assert 'shard_jobs_per_sec.len==4'
//	-assert 'projection.n>0'
//
// -smoke skips the baseline comparison entirely and evaluates only the
// -assert expressions — the mode for results (merged or coordinated runs)
// that have no meaningful baseline. Without -smoke, -assert expressions run
// in addition to the baseline gates.
//
// Throughput gating is one-sided: running faster than baseline always
// passes. The baseline's jobs_per_sec — the decode-speed fields
// codec_records_per_sec (the hand-rolled NDJSON scanner) and
// colbin_records_per_sec (the columnar block reader) — the columnar
// end-to-end jobs_per_sec_columns, and the file-parallel indexed decode
// jobs_per_sec_parallel_file are conservative floors chosen to hold across
// CI runner generations; fidelity fields are deterministic for a given seed
// and compared tightly. Each codec gate only engages when both result files
// carry its field, so older baselines stay comparable.
//
// -fidelity-only skips the timing gates and compares only the
// deterministic aggregates — the mode the distributed shard-merge smoke
// uses, where the merged result JSON carries no timing fields. When both
// results carry the cdf/projection sketch sections, those are compared for
// exact equality: the multi-process merge is defined to be bit-identical
// to the single-process sharded run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/report"
	"repro/internal/version"
)

// result mirrors the paibench schema fields benchdiff compares.
type result struct {
	Schema     string  `json:"schema"`
	Jobs       int     `json:"jobs"`
	Seed       int64   `json:"seed"`
	Backend    string  `json:"backend"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	// CodecRecordsPerSec is the decode-only NDJSON codec speed; zero in
	// result files predating the codec benchmark.
	CodecRecordsPerSec float64 `json:"codec_records_per_sec"`
	// ColbinRecordsPerSec is the decode-only columnar codec speed; zero in
	// result files predating the colbin codec.
	ColbinRecordsPerSec float64 `json:"colbin_records_per_sec"`
	// JobsPerSecColumns is the columnar end-to-end throughput (block decode
	// through columnar sink fold); zero in result files predating it.
	JobsPerSecColumns float64 `json:"jobs_per_sec_columns"`
	// JobsPerSecParallelFile is the file-parallel indexed decode throughput
	// (seekable block index, 4 concurrent segment readers); zero in result
	// files predating the block index.
	JobsPerSecParallelFile float64 `json:"jobs_per_sec_parallel_file"`
	// CDF and Projection are the sketch-backed sections of -full/-merge
	// runs; decoded generically and compared for exact equality when both
	// sides carry them.
	CDF        map[string]any  `json:"cdf"`
	Projection map[string]any  `json:"projection"`
	Fidelity   report.Fidelity `json:"fidelity"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stdout)
	basePath := fs.String("baseline", "BENCH_BASELINE.json", "golden baseline result JSON")
	curPath := fs.String("current", "", "fresh paibench result JSON")
	maxRegress := fs.Float64("max-regress", 0.20, "maximum allowed fractional throughput regression")
	shareTol := fs.Float64("share-tol", 0.02, "maximum absolute drift of any share aggregate")
	stepTol := fs.Float64("step-tol", 0.05, "maximum relative drift of step-time aggregates")
	fidelityOnly := fs.Bool("fidelity-only", false,
		"skip the throughput and codec gates; compare only deterministic aggregates (for merged shard results without timing fields)")
	var asserts assertList
	fs.Var(&asserts, "assert",
		"assert `path OP value` against the current result JSON (repeatable; e.g. 'cache_hit_rate>0.5', 'shard_jobs_per_sec.len==4')")
	smoke := fs.Bool("smoke", false,
		"standalone smoke mode: skip the baseline comparison and evaluate only the -assert expressions against -current")
	showVersion := fs.Bool("version", false, "print build/version information and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintln(stdout, version.Get())
		return nil
	}
	if *curPath == "" {
		return fmt.Errorf("-current is required")
	}
	if *smoke {
		if len(asserts) == 0 {
			return fmt.Errorf("-smoke needs at least one -assert expression")
		}
		return runAsserts(*curPath, asserts, stdout)
	}

	base, err := load(*basePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	cur, err := load(*curPath)
	if err != nil {
		return fmt.Errorf("current: %w", err)
	}
	if base.Seed != cur.Seed || base.Jobs != cur.Jobs {
		fmt.Fprintf(stdout, "warning: comparing different traces (baseline %d jobs seed %d, current %d jobs seed %d); share tolerances still apply\n",
			base.Jobs, base.Seed, cur.Jobs, cur.Seed)
	}

	var failures []string
	check := func(ok bool, format string, a ...any) {
		line := fmt.Sprintf(format, a...)
		if ok {
			fmt.Fprintf(stdout, "ok   %s\n", line)
		} else {
			fmt.Fprintf(stdout, "FAIL %s\n", line)
			failures = append(failures, line)
		}
	}

	if *fidelityOnly {
		fmt.Fprintln(stdout, "skip throughput and codec gates (-fidelity-only)")
	} else {
		floor := base.JobsPerSec * (1 - *maxRegress)
		check(cur.JobsPerSec >= floor,
			"throughput: %.0f jobs/sec vs baseline %.0f (floor %.0f at -max-regress %.0f%%)",
			cur.JobsPerSec, base.JobsPerSec, floor, *maxRegress*100)

		// Decode hot paths (NDJSON scanner, columnar block reader), each
		// gated the same one-sided way once both results measure it.
		if base.CodecRecordsPerSec > 0 && cur.CodecRecordsPerSec > 0 {
			codecFloor := base.CodecRecordsPerSec * (1 - *maxRegress)
			check(cur.CodecRecordsPerSec >= codecFloor,
				"codec: %.0f records/sec vs baseline %.0f (floor %.0f at -max-regress %.0f%%)",
				cur.CodecRecordsPerSec, base.CodecRecordsPerSec, codecFloor, *maxRegress*100)
		}
		if base.ColbinRecordsPerSec > 0 && cur.ColbinRecordsPerSec > 0 {
			colbinFloor := base.ColbinRecordsPerSec * (1 - *maxRegress)
			check(cur.ColbinRecordsPerSec >= colbinFloor,
				"colbin: %.0f records/sec vs baseline %.0f (floor %.0f at -max-regress %.0f%%)",
				cur.ColbinRecordsPerSec, base.ColbinRecordsPerSec, colbinFloor, *maxRegress*100)
		}
		if base.JobsPerSecColumns > 0 && cur.JobsPerSecColumns > 0 {
			columnsFloor := base.JobsPerSecColumns * (1 - *maxRegress)
			check(cur.JobsPerSecColumns >= columnsFloor,
				"columns: %.0f jobs/sec vs baseline %.0f (floor %.0f at -max-regress %.0f%%)",
				cur.JobsPerSecColumns, base.JobsPerSecColumns, columnsFloor, *maxRegress*100)
		}
		if base.JobsPerSecParallelFile > 0 && cur.JobsPerSecParallelFile > 0 {
			parFloor := base.JobsPerSecParallelFile * (1 - *maxRegress)
			check(cur.JobsPerSecParallelFile >= parFloor,
				"parallel-file: %.0f jobs/sec vs baseline %.0f (floor %.0f at -max-regress %.0f%%)",
				cur.JobsPerSecParallelFile, base.JobsPerSecParallelFile, parFloor, *maxRegress*100)
		}
	}

	// Sketch sections: deterministic for a given trace, and the
	// multi-process merge is bit-identical to the single-process sharded
	// run, so equality is exact.
	if base.CDF != nil && cur.CDF != nil {
		check(reflect.DeepEqual(base.CDF, cur.CDF), "cdf section identical")
	}
	if base.Projection != nil && cur.Projection != nil {
		check(reflect.DeepEqual(base.Projection, cur.Projection), "projection section identical")
	}

	compareShares := func(name string, base, cur map[string]float64) {
		for key, b := range base {
			c := cur[key]
			check(math.Abs(c-b) <= *shareTol,
				"%s[%s]: %.4f vs baseline %.4f (tol %.4f)", name, key, c, b, *shareTol)
		}
	}
	compareShares("class_job_share", base.Fidelity.ClassJobShare, cur.Fidelity.ClassJobShare)
	compareShares("class_cnode_share", base.Fidelity.ClassCNodeShare, cur.Fidelity.ClassCNodeShare)
	compareShares("overall_cnode_level", base.Fidelity.OverallCNode, cur.Fidelity.OverallCNode)

	relOK := func(b, c float64) bool {
		if b == 0 {
			return c == 0
		}
		return math.Abs(c-b)/math.Abs(b) <= *stepTol
	}
	check(relOK(base.Fidelity.MeanStepSec, cur.Fidelity.MeanStepSec),
		"mean_step_sec: %.5f vs baseline %.5f (rel tol %.0f%%)",
		cur.Fidelity.MeanStepSec, base.Fidelity.MeanStepSec, *stepTol*100)
	check(relOK(base.Fidelity.P50StepSec, cur.Fidelity.P50StepSec),
		"p50_step_sec: %.5f vs baseline %.5f (rel tol %.0f%%)",
		cur.Fidelity.P50StepSec, base.Fidelity.P50StepSec, *stepTol*100)
	check(relOK(base.Fidelity.P99StepSec, cur.Fidelity.P99StepSec),
		"p99_step_sec: %.5f vs baseline %.5f (rel tol %.0f%%)",
		cur.Fidelity.P99StepSec, base.Fidelity.P99StepSec, *stepTol*100)

	if len(asserts) > 0 {
		doc, err := loadAny(*curPath)
		if err != nil {
			return fmt.Errorf("current: %w", err)
		}
		if err := evalAsserts(doc, asserts, func(ok bool, line string) {
			check(ok, "%s", line)
		}); err != nil {
			return err
		}
	}

	if len(failures) > 0 {
		return fmt.Errorf("%d regression(s) against %s", len(failures), *basePath)
	}
	fmt.Fprintln(stdout, "benchdiff: no regressions")
	return nil
}

// assertList collects repeated -assert flags.
type assertList []string

func (a *assertList) String() string { return strings.Join(*a, ", ") }
func (a *assertList) Set(v string) error {
	if strings.TrimSpace(v) == "" {
		return fmt.Errorf("empty assertion")
	}
	*a = append(*a, v)
	return nil
}

// runAsserts is -smoke mode: every -assert expression evaluated against the
// current result, no baseline involved.
func runAsserts(curPath string, asserts assertList, stdout io.Writer) error {
	doc, err := loadAny(curPath)
	if err != nil {
		return fmt.Errorf("current: %w", err)
	}
	failures := 0
	if err := evalAsserts(doc, asserts, func(ok bool, line string) {
		if ok {
			fmt.Fprintf(stdout, "ok   %s\n", line)
		} else {
			fmt.Fprintf(stdout, "FAIL %s\n", line)
			failures++
		}
	}); err != nil {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("%d assertion(s) failed against %s", failures, curPath)
	}
	fmt.Fprintf(stdout, "benchdiff: %d assertion(s) hold\n", len(asserts))
	return nil
}

// evalAsserts evaluates every expression against doc, reporting each
// outcome through report — the one assertion loop both the -smoke path and
// the baseline-comparison path share.
func evalAsserts(doc any, asserts assertList, report func(ok bool, line string)) error {
	for _, expr := range asserts {
		ok, desc, err := evalAssert(doc, expr)
		if err != nil {
			return fmt.Errorf("assert %q: %w", expr, err)
		}
		report(ok, "assert "+desc)
	}
	return nil
}

// assertOps lists the comparison operators, two-character ones first so
// ">=" is never misread as ">" followed by "=0.5".
var assertOps = []struct {
	tok string
	ok  func(got, want float64) bool
}{
	{">=", func(g, w float64) bool { return g >= w }},
	{"<=", func(g, w float64) bool { return g <= w }},
	{"==", func(g, w float64) bool { return g == w }},
	{"!=", func(g, w float64) bool { return g != w }},
	{">", func(g, w float64) bool { return g > w }},
	{"<", func(g, w float64) bool { return g < w }},
}

// evalAssert evaluates one `path OP value` expression against a generically
// decoded result document. It returns whether the assertion holds and a
// rendered description carrying the observed value.
func evalAssert(doc any, expr string) (ok bool, desc string, err error) {
	for _, op := range assertOps {
		i := strings.Index(expr, op.tok)
		if i < 0 {
			continue
		}
		path := strings.TrimSpace(expr[:i])
		rhs := strings.TrimSpace(expr[i+len(op.tok):])
		if path == "" || rhs == "" {
			return false, "", fmt.Errorf("want `path %s value`", op.tok)
		}
		want, perr := strconv.ParseFloat(rhs, 64)
		if perr != nil {
			return false, "", fmt.Errorf("right-hand side %q is not a number", rhs)
		}
		got, lerr := lookup(doc, path)
		if lerr != nil {
			return false, "", lerr
		}
		return op.ok(got, want), fmt.Sprintf("%s %s %s (observed %v)", path, op.tok, rhs, got), nil
	}
	return false, "", fmt.Errorf("no comparison operator (>, >=, <, <=, ==, !=)")
}

// lookup descends a dot-separated path through decoded JSON: object fields
// by name, array elements by index, array length via a `len` segment, and
// booleans as 1/0.
func lookup(v any, path string) (float64, error) {
	cur := v
	for _, seg := range strings.Split(path, ".") {
		switch node := cur.(type) {
		case map[string]any:
			next, ok := node[seg]
			if !ok {
				return 0, fmt.Errorf("no field %q in path %q", seg, path)
			}
			cur = next
		case []any:
			if seg == "len" {
				cur = float64(len(node))
				continue
			}
			i, err := strconv.Atoi(seg)
			if err != nil || i < 0 || i >= len(node) {
				return 0, fmt.Errorf("array segment %q in path %q (have %d elements; use an index or `len`)", seg, path, len(node))
			}
			cur = node[i]
		default:
			return 0, fmt.Errorf("path %q descends past scalar at %q", path, seg)
		}
	}
	switch n := cur.(type) {
	case float64:
		return n, nil
	case bool:
		if n {
			return 1, nil
		}
		return 0, nil
	case nil:
		return 0, fmt.Errorf("path %q is null", path)
	default:
		return 0, fmt.Errorf("path %q is %T, not a number (address array lengths with `len`)", path, cur)
	}
}

// loadAny decodes a result file generically for -assert paths, still
// pinning the schema so an unrelated JSON file fails loudly.
func loadAny(path string) (any, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var doc map[string]any
	if err := json.NewDecoder(f).Decode(&doc); err != nil {
		return nil, err
	}
	if s, _ := doc["schema"].(string); s != "paibench/1" {
		return nil, fmt.Errorf("%s: unexpected schema %q", path, doc["schema"])
	}
	return doc, nil
}

func load(path string) (*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r result
	if err := json.NewDecoder(f).Decode(&r); err != nil {
		return nil, err
	}
	if r.Schema != "paibench/1" {
		return nil, fmt.Errorf("%s: unexpected schema %q", path, r.Schema)
	}
	return &r, nil
}
