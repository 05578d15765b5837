// Command perfbench is the repository benchmark. One command runs one
// named workload against the library (core.Approximate) or the
// in-process daemon (serve.Server behind a loopback net/http listener),
// checks every output, and prints its metrics:
//
//	go build -o perfbench . && ./perfbench --workload randomized --seed 1 --seconds 20 --trace 0
//
// run.sh does the same from the repository root with the build cache
// kept under .bench_build. Workloads:
//
//	randomized     RandQB_EI on M1–M6 and CUR on M2, M4, M6 (medium scale)
//	deterministic  LU_CRTP and ILUT_CRTP on M2 and M6 (medium scale)
//	serve          a 2-client closed loop against lowrankd's HTTP API
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics of a traced run. The
// line before it is a report: the machine stamp, the sample count
// behind every metric and the workload notes. METRICS.md maps each
// per-layer metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sparselr/internal/gen"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics, their sample counts and the failure tally of
// one run.
type report struct {
	metrics   map[string]metric
	samples   map[string]int
	notes     []string
	attempted int
	failed    int
	checks    []string // first few failure descriptions
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}}
}

func (r *report) set(name, unit string, v float64, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = samples
}

func (r *report) note(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op records one checked operation; a non-empty reason marks it failed.
func (r *report) op(reason string) {
	r.attempted++
	if reason == "" {
		return
	}
	r.failed++
	if len(r.checks) < 20 {
		r.checks = append(r.checks, reason)
	}
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    gen.Scale // solver workloads; serve always runs small
	inject   string    // "", "tau" or "http": deliberate failures, set by the self-test
	scratch  string    // writable directory for the disk cache tier
}

func main() {
	cfg := config{scale: gen.Medium}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "randomized, deterministic or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: inputs, sketches and the request sequence derive from it")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.StringVar(&cfg.scratch, "scratch", ".bench_build", "directory for temporary files")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		fatal(err)
	}
	var err error
	if cfg.scratch, err = filepath.Abs(cfg.scratch); err != nil {
		fatal(err)
	}

	start := time.Now()
	rep, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	rep.note("run took %.1f s", time.Since(start).Seconds())

	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]interface{}{
		"report":    cfg.workload,
		"trace":     cfg.trace,
		"stamp":     stamp(cfg),
		"samples":   rep.samples,
		"fail_frac": float64(rep.failed) / float64(rep.attempted),
		"failures":  rep.checks,
		"notes":     rep.notes,
	}); err != nil {
		fatal(err)
	}
	if err := out.Encode(result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}); err != nil {
		fatal(err)
	}
}

// run executes one workload and returns its report.
func run(cfg config) (*report, error) {
	rep := newReport()
	var err error
	switch cfg.workload {
	case "randomized", "deterministic":
		err = runSolveWorkload(cfg, rep)
	case "serve":
		err = runServeWorkload(cfg, rep)
	default:
		err = fmt.Errorf("unknown --workload %q (want randomized, deterministic or serve)", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	if rep.attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	if !cfg.trace {
		rep.set("ok_frac", "ratio", 1-float64(rep.failed)/float64(rep.attempted), rep.attempted)
	}
	return rep, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func logf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "perfbench: "+strings.TrimSuffix(format, "\n")+"\n", args...)
}
