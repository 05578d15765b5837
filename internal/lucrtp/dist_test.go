package lucrtp

import (
	"math"
	"slices"
	"testing"

	"sparselr/internal/dist"
	"sparselr/internal/sparse"
)

// TestFactorDistMatchesSequential checks, for every option that changes
// the iteration, that one rank gives Factor's result bit for bit. Two and
// four ranks play the tournaments on a different reduction tree and may
// pick other, equally valid pivots; where they pick Factor's pivots the
// result must again be Factor's bit for bit, and otherwise the factors
// must still reproduce the indicator exactly.
func TestFactorDistMatchesSequential(t *testing.T) {
	lowRank := decayMatrix(60, 50, 30, 0.6, 101)
	fill := randSparse(60, 60, 0.12, 81)
	ilut := func(mode ThresholdMode) Options {
		return Options{BlockSize: 8, Tol: 1e-2, Threshold: mode, EstIters: 6}
	}
	fixed := ilut(FixedThreshold)
	fixed.Mu = 1e-3
	captured := ilut(AutoThreshold)
	captured.CaptureDropped = true
	cases := []struct {
		name string
		a    *sparse.CSR
		opts Options
	}{
		{"plain", lowRank, Options{BlockSize: 8, Tol: 1e-3}},
		{"ilut-auto", fill, ilut(AutoThreshold)},
		{"ilut-fixed", fill, fixed},
		{"ilut-aggressive", fill, ilut(AggressiveThreshold)},
		{"stable-l", lowRank, Options{BlockSize: 8, Tol: 1e-3, StableL: true}},
		{"discard", lowRank, Options{BlockSize: 8, Tol: 1e-3, DiscardTol: 1}},
		{"numerical-rank", lowRank, Options{BlockSize: 8, Tol: 1e-15, StopAtNumericalRank: true}},
		{"reorder-every", fill, Options{BlockSize: 8, Tol: 1e-2, Reorder: ReorderEvery}},
		{"reorder-off", fill, Options{BlockSize: 8, Tol: 1e-2, Reorder: ReorderOff}},
		{"capture-dropped", fill, captured},
	}
	for _, tc := range cases {
		seq, err := Factor(tc.a, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		switch tc.name {
		case "numerical-rank":
			if !seq.HitNumRank {
				t.Fatalf("%s: the rank guard never fired", tc.name)
			}
		case "capture-dropped":
			if seq.Dropped == nil || seq.Dropped.NNZ() == 0 {
				t.Fatalf("%s: nothing dropped", tc.name)
			}
		}
		for _, p := range []int{1, 2, 4} {
			var got *Result
			dist.Run(p, dist.DefaultConfig(), func(c *dist.Comm) {
				r, err := FactorDist(c, tc.a, tc.opts)
				if err != nil {
					t.Errorf("%s p=%d: %v", tc.name, p, err)
					return
				}
				if c.Rank() == 0 {
					got = r
				}
			})
			if got == nil {
				t.Fatalf("%s p=%d: no result", tc.name, p)
			}
			samePivots := slices.Equal(got.RowPerm, seq.RowPerm) && slices.Equal(got.ColPerm, seq.ColPerm)
			if p == 1 || samePivots {
				if diff := resultDiff(got, seq); diff != "" {
					t.Errorf("%s p=%d: %s differs from Factor", tc.name, p, diff)
				}
			} else if tc.opts.Threshold == NoThreshold || tc.opts.CaptureDropped {
				te := TrueError(tc.a, got)
				if got.Dropped != nil {
					te = ThresholdedError(tc.a, got)
				}
				if math.Abs(te-got.ErrIndicator) > 1e-9*got.NormA {
					t.Errorf("%s p=%d: factors give error %v, indicator %v", tc.name, p, te, got.ErrIndicator)
				}
			}
			if p > 1 && tc.name == "plain" {
				if !samePivots {
					t.Errorf("%s p=%d: pivots differ from Factor", tc.name, p)
				}
				if !got.Converged || got.Rank != seq.Rank || got.Iters != seq.Iters {
					t.Errorf("%s p=%d: converged %v, rank/iters %d/%d vs sequential %d/%d",
						tc.name, p, got.Converged, got.Rank, got.Iters, seq.Rank, seq.Iters)
				}
				if math.Abs(got.ErrIndicator-seq.ErrIndicator) > 1e-9*seq.NormA {
					t.Errorf("%s p=%d: indicator %v vs %v", tc.name, p, got.ErrIndicator, seq.ErrIndicator)
				}
			}
			if len(got.TimeHistory) != got.Iters {
				t.Errorf("%s p=%d: %d time samples for %d iterations", tc.name, p, len(got.TimeHistory), got.Iters)
			}
		}
	}
}

// resultDiff names the first field in which two results differ bitwise,
// ignoring the wall-clock TimeHistory.
func resultDiff(a, b *Result) string {
	switch {
	case !slices.Equal(a.RowPerm, b.RowPerm):
		return "RowPerm"
	case !slices.Equal(a.ColPerm, b.ColPerm):
		return "ColPerm"
	case !sameCSR(a.L, b.L):
		return "L"
	case !sameCSR(a.U, b.U):
		return "U"
	case !slices.Equal(a.ErrHistory, b.ErrHistory):
		return "ErrHistory"
	case !slices.Equal(a.FillHistory, b.FillHistory) || !slices.Equal(a.NNZHistory, b.NNZHistory):
		return "fill history"
	case a.Rank != b.Rank || a.Iters != b.Iters || a.ErrIndicator != b.ErrIndicator:
		return "rank, iterations or indicator"
	case a.Converged != b.Converged || a.HitNumRank != b.HitNumRank:
		return "stop reason"
	case a.Mu != b.Mu || a.Phi != b.Phi || a.ControlTriggered != b.ControlTriggered:
		return "threshold"
	case a.DroppedNorm2 != b.DroppedNorm2 || a.DroppedNorm1 != b.DroppedNorm1 || a.DroppedNNZ != b.DroppedNNZ:
		return "dropped accounting"
	case (a.Dropped == nil) != (b.Dropped == nil) || a.Dropped != nil && !sameCSR(a.Dropped, b.Dropped):
		return "Dropped"
	case a.DiscardedCols != b.DiscardedCols:
		return "DiscardedCols"
	}
	return ""
}

func sameCSR(a, b *sparse.CSR) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && slices.Equal(a.RowPtr, b.RowPtr) &&
		slices.Equal(a.ColIdx, b.ColIdx) && slices.Equal(a.Val, b.Val)
}

func TestFactorDistAllRanksAgree(t *testing.T) {
	a := decayMatrix(40, 40, 20, 0.6, 102)
	p := 4
	results := make([]*Result, p)
	dist.Run(p, dist.DefaultConfig(), func(c *dist.Comm) {
		r, err := FactorDist(c, a, Options{BlockSize: 4, Tol: 1e-2})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		results[c.Rank()] = r
	})
	for r := 1; r < p; r++ {
		if results[r].Rank != results[0].Rank {
			t.Fatal("ranks disagree on rank")
		}
		if !results[r].L.Equal(results[0].L, 0) || !results[r].U.Equal(results[0].U, 0) {
			t.Fatal("ranks disagree on factors")
		}
	}
}

func TestFactorDistILUT(t *testing.T) {
	a := decayMatrix(80, 80, 50, 0.8, 103)
	tol := 1e-2
	var got *Result
	dist.Run(4, dist.DefaultConfig(), func(c *dist.Comm) {
		r, err := FactorDist(c, a, Options{BlockSize: 8, Tol: tol, Threshold: AutoThreshold, EstIters: 6})
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		if c.Rank() == 0 {
			got = r
		}
	})
	if got == nil || !got.Converged {
		t.Fatal("distributed ILUT did not converge")
	}
	te := TrueError(a, got)
	if te >= 1.05*tol*got.NormA {
		t.Fatalf("true error %v above bound", te)
	}
}

func TestFactorDistKernelBreakdown(t *testing.T) {
	a := randSparse(80, 80, 0.08, 104)
	res := dist.Run(4, dist.DefaultConfig(), func(c *dist.Comm) {
		if _, err := FactorDist(c, a, Options{BlockSize: 8, Tol: 1e-2}); err != nil {
			t.Error(err)
		}
	})
	for _, kernel := range []string{"colQR_TP/local", "rowQR_TP/local", "panelQR", "rowPerm", "triSolve", "schur"} {
		if res.MaxKernel(kernel) <= 0 {
			t.Errorf("kernel %q has no attributed time", kernel)
		}
	}
	if res.MaxTime() <= 0 {
		t.Fatal("no virtual time accumulated")
	}
}

func TestFactorDistVirtualSpeedup(t *testing.T) {
	// More ranks should reduce the modeled runtime for a reasonably
	// large problem (strong scaling regime of Fig 4 before the global
	// reduction dominates).
	a := randSparse(160, 160, 0.06, 105)
	timeFor := func(p int) float64 {
		res := dist.Run(p, dist.DefaultConfig(), func(c *dist.Comm) {
			if _, err := FactorDist(c, a, Options{BlockSize: 8, Tol: 1e-2}); err != nil {
				t.Error(err)
			}
		})
		return res.MaxTime()
	}
	t1 := timeFor(1)
	t4 := timeFor(4)
	if t4 >= t1 {
		t.Fatalf("no modeled speedup: t1=%v t4=%v", t1, t4)
	}
}

func TestFactorDistColumnDiscarding(t *testing.T) {
	a := decayMatrix(80, 80, 25, 0.6, 140)
	tol := 1e-2
	var got *Result
	dist.Run(4, dist.DefaultConfig(), func(c *dist.Comm) {
		r, err := FactorDist(c, a, Options{BlockSize: 8, Tol: tol, DiscardTol: 1})
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			got = r
		}
	})
	if got == nil || !got.Converged {
		t.Fatal("discarding dist run did not converge")
	}
	if te := TrueError(a, got); te >= 1.01*tol*got.NormA {
		t.Fatalf("true error %v above bound", te)
	}
	if got.DiscardedCols == 0 {
		t.Fatal("expected pruned candidates on the decay matrix")
	}
}
