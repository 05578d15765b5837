package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"sparselr/internal/gen"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the test
// checks the output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyConfig runs a workload at the smallest size: small Table I
// analogs and a one-second timed phase.
func tinyConfig(t *testing.T, workload string, seed int64, trace bool) config {
	return config{workload: workload, seed: seed, seconds: 1, trace: trace, scale: gen.Small, scratch: t.TempDir()}
}

// TestEveryMetricEmitted runs each workload at a tiny size on two seeds,
// untraced and traced, and checks that every metric BENCHMARK.json
// names is emitted with its unit and that nothing failed.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, seed := range []int64{1, 2} {
			for _, trace := range []bool{false, true} {
				rep, err := run(tinyConfig(t, w.Name, seed, trace))
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", w.Name, seed, trace, err)
				}
				if rep.failed != 0 {
					t.Errorf("%s seed %d trace %v: %d of %d operations failed: %v", w.Name, seed, trace, rep.failed, rep.attempted, rep.checks)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				for _, m := range want {
					got, ok := rep.metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s seed %d trace %v: metric %s missing", w.Name, seed, trace, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s seed %d trace %v: metric %s has unit %q, want %q", w.Name, seed, trace, m.Name, got.Unit, m.Unit)
					}
				}
				if len(rep.metrics) != len(want) {
					t.Errorf("%s seed %d trace %v: %d metrics emitted, BENCHMARK.json names %d", w.Name, seed, trace, len(rep.metrics), len(want))
				}
			}
		}
	}
}

// TestInjectedFailuresCount checks that a τ violation (in the serve
// workload, of every ACA result) and a non-2xx reply are caught and
// lower ok_frac.
func TestInjectedFailuresCount(t *testing.T) {
	for _, tc := range []struct{ workload, inject, want string }{
		{"randomized", "tau", "exact error"},
		{"deterministic", "tau", "exact error"},
		{"serve", "tau", "direct ACA"},
		{"serve", "http", "HTTP 400"},
	} {
		cfg := tinyConfig(t, tc.workload, 1, false)
		cfg.inject = tc.inject
		rep, err := run(cfg)
		if err != nil {
			t.Fatalf("%s with %s injected: %v", tc.workload, tc.inject, err)
		}
		if rep.failed == 0 {
			t.Errorf("%s with %s injected: no failure counted", tc.workload, tc.inject)
		} else if !strings.Contains(strings.Join(rep.checks, "\n"), tc.want) {
			t.Errorf("%s with %s injected: no failure mentions %q: %v", tc.workload, tc.inject, tc.want, rep.checks)
		}
		if ok := rep.metrics["ok_frac"].Value; ok >= 1 {
			t.Errorf("%s with %s injected: ok_frac = %g, want < 1", tc.workload, tc.inject, ok)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"sparselr/internal/mat.gemmKernel", "sparselr/internal/randqb.Factor"}, "mat"},
		{[]string{"runtime.memmove", "sparselr/internal/sparse.(*CSR).PermuteCols"}, "sparse"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "sparselr/internal/lucrtp.Factor"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"encoding/json.(*encodeState).string", "net/http.HandlerFunc.ServeHTTP"}, "nethttp"},
		{[]string{"crypto/sha256.block", "sparselr/internal/serve.(*Spec).Key"}, "serve"},
		{[]string{"syscall.Syscall", "os.(*File).Read"}, "other"},
	} {
		if got := bucketOf(tc.frames); got != tc.want {
			t.Errorf("bucketOf(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

// TestInputsFollowSeed checks that the generated inputs repeat under a
// seed and change with it: the permuted analogs and the serve request
// sequence.
func TestInputsFollowSeed(t *testing.T) {
	a1, a2, b := tableI(gen.Small, 1), tableI(gen.Small, 1), tableI(gen.Small, 2)
	for _, l := range gen.Labels() {
		if !reflect.DeepEqual(a1[l], a2[l]) {
			t.Errorf("%s differs between two draws of seed 1", l)
		}
		if reflect.DeepEqual(a1[l], b[l]) {
			t.Errorf("%s is the same under seeds 1 and 2", l)
		}
	}
	draw := func(seed int64) []request {
		s := newSequence(seed, 48, 0)
		out := make([]request, 2*freshEvery*48)
		for i := range out {
			out[i], _ = s.next()
		}
		return out
	}
	r1, r2, r3 := draw(1), draw(1), draw(2)
	if !reflect.DeepEqual(r1, r2) {
		t.Error("request sequence differs between two draws of seed 1")
	}
	if reflect.DeepEqual(r1, r3) {
		t.Error("request sequence is the same under seeds 1 and 2")
	}
}

// TestFreshKeysCycleCatalog checks the stratified fresh keys: every
// block of freshEvery × entries submits forces exactly one solve of
// every catalog entry, under fresh seeds no other submit uses.
func TestFreshKeysCycleCatalog(t *testing.T) {
	const entries = 48
	s := newSequence(7, entries, 0)
	seeds := map[int64]bool{}
	for block := 0; block < 3; block++ {
		fresh := map[int]int{}
		for i := 0; i < freshEvery*entries; i++ {
			r, _ := s.next()
			if r.fresh {
				fresh[r.entry]++
				if seeds[r.seed] || r.seed == 7 {
					t.Fatalf("fresh submit reuses seed %d", r.seed)
				}
				seeds[r.seed] = true
			}
		}
		if len(fresh) != entries {
			t.Errorf("block %d: %d distinct fresh entries, want %d", block, len(fresh), entries)
		}
		for e, n := range fresh {
			if n != 1 {
				t.Errorf("block %d: entry %d solved fresh %d times", block, e, n)
			}
		}
	}
}
