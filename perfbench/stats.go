package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"sparselr/internal/gen"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p/100*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// fmtList formats xs compactly for a report note.
func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

// stealSample is the machine-wide CPU time counters of /proc/stat.
type stealSample struct{ steal, total uint64 }

// readSteal reads the aggregate cpu line of /proc/stat; on a system
// without it the sample is zero and shares read 0.
func readSteal() stealSample {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return stealSample{}
	}
	var s stealSample
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return stealSample{}
		}
		s.total += n
		if i == 7 {
			s.steal = n
		}
	}
	return s
}

// shareSince is the share of the machine's CPU time that the host
// (hypervisor) took from this machine since s: time the benchmark could
// not run, which a wall-clock figure includes.
func (s stealSample) shareSince() float64 {
	now := readSteal()
	if now.total <= s.total {
		return 0
	}
	return float64(now.steal-s.steal) / float64(now.total-s.total)
}

// stamp identifies the machine and build behind a result.
func stamp(cfg config) map[string]interface{} {
	return map[string]interface{}{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"git_sha":    gitSHA(),
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"scale":      scaleOf(cfg).String(),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

// scaleOf is the Table I analog scale a workload runs at.
func scaleOf(cfg config) gen.Scale {
	if cfg.workload == "serve" {
		return gen.Small
	}
	return cfg.scale
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitSHA asks git for the commit; a checkout without git history
// reports "unknown".
func gitSHA() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}
