// Command perfbench is the repository benchmark. It runs one workload for a
// fixed time and prints every metric by name, with its unit and sample
// count, and as its last line one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload report-colbin-repeat --seed 1 --seconds 20 --trace 0
//
// Three processes take part. This one orchestrates; a generator process
// writes the workload's inputs for the seed once into .bench_build/inputs
// (untimed, cached per seed); a measured process loads only those inputs,
// sets up, measures and checks. Its peak resident memory is read from the
// kernel's accounting for that process alone, so trace generation counts
// neither in setup_s nor in peak_rss_mib. --trace 1 runs the measured
// process with the per-layer spans on and reports the per-layer metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// options are the command-line settings shared by all three modes.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	mode     string // "", "gen" or "measure"
	dir      string // the workload's input directory
	spans    string // where a traced run writes its spans
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs with per-layer tracing and reports per-layer metrics")
	flag.StringVar(&o.mode, "mode", "", "internal: gen or measure")
	flag.StringVar(&o.dir, "dir", "", "internal: input directory")
	flag.StringVar(&o.spans, "spans", "", "internal: span output file")
	flag.Parse()
	o.trace = trace == 1

	w, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	var err error
	switch o.mode {
	case "gen":
		err = w.generate(o.dir, o.seed, o.seconds)
	case "measure":
		err = measure(w, o)
	case "":
		err = orchestrate(o)
	default:
		err = fmt.Errorf("unknown mode %q", o.mode)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// inputVersion names the input layout; bump it when a generator changes so
// cached inputs of the old layout are not reused.
const inputVersion = "v7"

// orchestrate generates the inputs if needed, runs the measured process and
// prints its result.
func orchestrate(o options) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	dir := filepath.Join(build, "inputs", inputVersion, o.workload, fmt.Sprintf("seed-%d-seconds-%d", o.seed, o.seconds))
	if err := os.MkdirAll(filepath.Join(build, "results"), 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, btoi(o.trace))
	spans := filepath.Join(build, "results", name+"-spans.json")
	self, err := os.Executable()
	if err != nil {
		return err
	}
	args := func(mode string) []string {
		return []string{"--workload", o.workload, "--seed", fmt.Sprint(o.seed),
			"--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(btoi(o.trace)),
			"--mode", mode, "--dir", dir, "--spans", spans}
	}

	if _, err := os.Stat(filepath.Join(dir, "complete")); err != nil {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		start := time.Now()
		gen := exec.Command(self, args("gen")...)
		gen.Stdout, gen.Stderr = os.Stderr, os.Stderr
		if err := gen.Run(); err != nil {
			return fmt.Errorf("generate inputs: %w", err)
		}
		if err := os.WriteFile(filepath.Join(dir, "complete"), nil, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: generated inputs in %.1fs\n", time.Since(start).Seconds())
	}

	var out bytes.Buffer
	m := exec.Command(self, args("measure")...)
	m.Stdout, m.Stderr = &out, os.Stderr
	m.Env = runtimeDefaults(os.Environ())
	if err := m.Run(); err != nil {
		return fmt.Errorf("measured process: %w", err)
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return fmt.Errorf("measured process output: %w", err)
	}
	if !o.trace {
		ru, ok := m.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return fmt.Errorf("no resource usage for the measured process")
		}
		res.add("peak_rss_mib", float64(ru.Maxrss)/1024, "MiB", 1) // Maxrss is in KiB on Linux
	}
	res.Machine = machine()

	rec, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(build, "results", name+".json"), rec, 0o644); err != nil {
		return err
	}

	fmt.Printf("workload %s seed %d seconds %d trace %d\n", o.workload, o.seed, o.seconds, btoi(o.trace))
	fmt.Printf("machine %s\n", res.Machine)
	for _, line := range res.Notes {
		fmt.Println(line)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("metric %-36s %16.6f %-6s samples=%d\n", n, m.Value, m.Unit, m.Samples)
	}
	for _, c := range res.Checks {
		fmt.Println("check", c)
	}

	final := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]map[string]any{}}
	for n, m := range res.Metrics {
		final.Metrics[n] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("correctness check failed")
	}
	return nil
}

// runtimeDefaults drops the Go runtime's tuning variables from env, so the
// measured process collects garbage and schedules as a deployed binary does
// by default.
func runtimeDefaults(env []string) []string {
	var out []string
	for _, kv := range env {
		switch strings.SplitN(kv, "=", 2)[0] {
		case "GOGC", "GOMEMLIMIT", "GODEBUG", "GOMAXPROCS":
			continue
		}
		out = append(out, kv)
	}
	return out
}

// machine names the host the result was measured on.
func machine() string {
	host := runtime.GOOS + "/" + runtime.GOARCH
	var u syscall.Utsname
	if err := syscall.Uname(&u); err == nil {
		host = cstring(u.Sysname[:]) + " " + cstring(u.Release[:]) + " " + cstring(u.Machine[:])
	}
	return fmt.Sprintf("%s nproc=%d gomaxprocs=%d go=%s", host, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// cstring converts a NUL-terminated utsname field.
func cstring[T int8 | uint8](b []T) string {
	s := make([]byte, 0, len(b))
	for _, c := range b {
		if c == 0 {
			break
		}
		s = append(s, byte(c))
	}
	return string(s)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
