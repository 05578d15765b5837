package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"sparselr/internal/core"
	"sparselr/internal/sparse"
)

// repeatSetup runs one set-up step at least 5 times and until 0.5 s of
// set-up have been measured, at most 25 times; setup_s is the median of
// the times the step reports.
func repeatSetup(step func(rep int) (time.Duration, error)) (float64, int, error) {
	var ts []float64
	var total time.Duration
	for r := 0; r < 25 && (r < 5 || total < 500*time.Millisecond); r++ {
		d, err := step(r)
		if err != nil {
			return 0, r, err
		}
		ts = append(ts, d.Seconds())
		total += d
	}
	return median(ts), len(ts), nil
}

// passes is the outcome of repeated passes over a fixed list of solves.
type passes struct {
	cases   []solveCase
	results [][]*core.Approximation // [pass][case]
	errs    [][]error
	wall    []float64   // seconds per pass
	steal   []float64   // share of the machine's CPU time the host took per pass
	allocMB []float64   // TotalAlloc delta per pass
	gcs     []float64   // GC cycles per pass
	solveS  [][]float64 // [case] seconds, one entry per pass
}

func newPasses(cases []solveCase) *passes {
	return &passes{cases: cases, solveS: make([][]float64, len(cases))}
}

// runPasses solves every case once per pass until budget seconds have
// passed, and at least minPasses times. Pass p draws the sketches of
// pass index first+p. A non-nil tracer records a span per pass and per
// core.Approximate call.
func runPasses(mats map[string]*sparse.CSR, cases []solveCase, seed int64, first int, budget float64, minPasses int, tr *tracer) *passes {
	ps := newPasses(cases)
	begin := time.Now()
	for p := 0; p < minPasses || time.Since(begin).Seconds() < budget; p++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := make([]*core.Approximation, len(cases))
		errs := make([]error, len(cases))
		st := readSteal()
		t0 := time.Now()
		root := tr.begin("pass", -1)
		for i, c := range cases {
			id := tr.begin("core.solve."+c.name(), root)
			s := time.Now()
			res[i], errs[i] = core.Approximate(mats[c.label], c.options(seed, first+p))
			ps.solveS[i] = append(ps.solveS[i], time.Since(s).Seconds())
			tr.finish(id)
		}
		tr.finish(root)
		ps.wall = append(ps.wall, time.Since(t0).Seconds())
		ps.steal = append(ps.steal, st.shareSince())
		runtime.ReadMemStats(&after)
		ps.allocMB = append(ps.allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		ps.gcs = append(ps.gcs, float64(after.NumGC-before.NumGC))
		ps.results = append(ps.results, res)
		ps.errs = append(ps.errs, errs)
	}
	return ps
}

// check verifies every solve of every pass: no error, converged, and an
// exact error ‖A − Ã‖_F within τ‖A‖_F. Identical results (same rank,
// factor count and error indicator bits as an already checked result of
// the same case) reuse that result's exact error. With inject, the first
// solve of each pass has a factor halved first, so its exact error
// breaks the bound.
func (ps *passes) check(mats map[string]*sparse.CSR, rep *report, inject bool) {
	type fp struct {
		rank, nnz int
		ind       uint64
	}
	exact := make([]map[fp]float64, len(ps.cases))
	for i := range exact {
		exact[i] = map[fp]float64{}
	}
	for p := range ps.results {
		for i, c := range ps.cases {
			ap, err := ps.results[p][i], ps.errs[p][i]
			if err != nil {
				rep.op(fmt.Sprintf("pass %d %s: %v", p, c.name(), err))
				continue
			}
			if !ap.Converged {
				rep.op(fmt.Sprintf("pass %d %s: not converged at rank %d", p, c.name(), ap.Rank))
				continue
			}
			a := mats[c.label]
			key := fp{ap.Rank, ap.NNZFactors, math.Float64bits(ap.ErrIndicator)}
			e, ok := exact[i][key]
			if inject && i == 0 {
				corrupt(ap)
				ok = false
			}
			if !ok {
				e = ap.TrueError(a)
				if !(inject && i == 0) {
					exact[i][key] = e
				}
			}
			bound := tol * a.FrobNorm()
			if !(e <= bound) {
				rep.op(fmt.Sprintf("pass %d %s: exact error %.4g > τ‖A‖_F = %.4g", p, c.name(), e, bound))
				continue
			}
			rep.op("")
		}
	}
}

// corrupt halves one factor of ap in place.
func corrupt(ap *core.Approximation) {
	switch {
	case ap.QB != nil:
		ap.QB.B.Scale(0.5)
	case ap.LU != nil:
		for k := range ap.LU.U.Val {
			ap.LU.U.Val[k] *= 0.5
		}
	case ap.CUR != nil:
		ap.CUR.U.Scale(0.5)
	}
}

// corruptedCopy returns a copy of a skeleton result with its core
// halved, leaving ap untouched.
func corruptedCopy(ap *core.Approximation) *core.Approximation {
	c, r := *ap, *ap.CUR
	r.U = r.U.Clone()
	c.CUR = &r
	corrupt(&c)
	return &c
}

// merge appends the passes of o, which ran the same cases.
func (ps *passes) merge(o *passes) {
	ps.results = append(ps.results, o.results...)
	ps.errs = append(ps.errs, o.errs...)
	ps.wall = append(ps.wall, o.wall...)
	ps.steal = append(ps.steal, o.steal...)
	ps.allocMB = append(ps.allocMB, o.allocMB...)
	ps.gcs = append(ps.gcs, o.gcs...)
	for i := range ps.solveS {
		ps.solveS[i] = append(ps.solveS[i], o.solveS[i]...)
	}
}

// firstPass describes the first pass solve by solve.
func (ps *passes) firstPass() string {
	var parts []string
	for i, c := range ps.cases {
		if ap := ps.results[0][i]; ap != nil {
			parts = append(parts, fmt.Sprintf("%s=%d/%.3f", c.name(), ap.Rank, ps.solveS[i][0]))
		}
	}
	return strings.Join(parts, " ")
}

// totals returns the median over passes of Σ NNZFactors and Σ rank.
func (ps *passes) totals() (nnz, rank float64) {
	var nnzs, ranks []float64
	for _, res := range ps.results {
		var n, r float64
		for _, ap := range res {
			if ap != nil {
				n += float64(ap.NNZFactors)
				r += float64(ap.Rank)
			}
		}
		nnzs, ranks = append(nnzs, n), append(ranks, r)
	}
	return median(nnzs), median(ranks)
}

// solveWorkload returns the cases of a solver workload and the fewest
// passes a run makes. Randomized pass times are bimodal: about one pass
// in five draws a sketch under which CUR on M4 doubles its rank to 512,
// and that pass takes 60% longer. Seven passes keep the median off such
// passes unless four of the seven draw one (about one run in thirty).
func solveWorkload(name string) ([]solveCase, int) {
	if name == "randomized" {
		return randomizedCases, 7
	}
	return deterministicCases, 3
}

// setupSolve generates the workload's matrices (see repeatSetup) and
// returns the last set with the median set-up time.
func setupSolve(cfg config) (map[string]*sparse.CSR, float64, int) {
	var mats map[string]*sparse.CSR
	setup, reps, _ := repeatSetup(func(int) (time.Duration, error) {
		t0 := time.Now()
		mats = tableI(cfg.scale, cfg.seed)
		return time.Since(t0), nil
	})
	return mats, setup, reps
}

// runSolveWorkload runs the randomized or deterministic workload.
func runSolveWorkload(cfg config, rep *report) error {
	cases, minPasses := solveWorkload(cfg.workload)
	mats, setup, reps := setupSolve(cfg)
	// No untimed warm-up pass: the first pass pays for growing the heap
	// and starting the kernel pool, and the median over the passes leaves
	// it out.
	if cfg.trace {
		return traceSolveWorkload(cfg, rep, mats, cases)
	}
	ps := runPasses(mats, cases, cfg.seed, 0, cfg.seconds, minPasses, nil)
	ps.check(mats, rep, cfg.inject == "tau")

	// A request is one solve. The tail is taken over the cases, each at
	// its median over passes: with one solve per case and pass, a raw
	// p99 would be the single slowest solve of the run.
	var lat, caseMed []float64
	for _, xs := range ps.solveS {
		lat = append(lat, xs...)
		caseMed = append(caseMed, median(xs))
	}
	nnz, rank := ps.totals()
	n := len(ps.wall)
	pass := median(ps.wall)
	rep.set("setup_s", "s", setup, reps)
	rep.set("time_to_tol_s", "s", pass, n)
	rep.set("alloc_mb", "MB", median(ps.allocMB), n)
	rep.set("factor_nnz", "count", nnz, n)
	rep.set("rank_total", "count", rank, n)
	rep.set("req_p50_ms", "ms", 1000*median(lat), len(lat))
	rep.set("req_p99_ms", "ms", 1000*percentile(caseMed, 99), len(lat))
	rep.set("req_per_s", "1/s", float64(len(cases))/pass, n)
	rep.set("cold_p50_ms", "ms", 1000*median(lat), len(lat))
	rep.note("%s: %d passes of %d solves (%s s); a request is one core.Approximate call, and every solve is cold", cfg.workload, n, len(cases), fmtList(ps.wall))
	rep.note("host steal share per pass: %s", fmtList(ps.steal))
	rep.note("first pass, rank and seconds per solve: %s", ps.firstPass())
	return nil
}
