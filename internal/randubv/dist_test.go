package randubv

import (
	"math"
	"slices"
	"testing"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
	"sparselr/internal/sketch"
	"sparselr/internal/sparse"
)

// TestFactorDistMatchesSequential checks, for the options that change
// the iteration, that one rank gives Factor's result bit for bit. More
// ranks reassociate the Aᵀ·U sums, so their approximation must agree to
// roundoff.
func TestFactorDistMatchesSequential(t *testing.T) {
	lowRank := decayMatrix(60, 50, 30, 0.6, 21)
	cases := []struct {
		name string
		a    *sparse.CSR
		opts Options
	}{
		{"plain", lowRank, Options{BlockSize: 8, Tol: 1e-3, Seed: 22}},
		{"max-rank", lowRank, Options{BlockSize: 8, Tol: 1e-6, MaxRank: 20, Seed: 22}},
		{"deflation", decayMatrix(40, 40, 10, 0.5, 23), Options{BlockSize: 8, Tol: 1e-14, Seed: 24}},
		{"sparse-sign", lowRank, Options{BlockSize: 6, Tol: 1e-3, Seed: 22, Sketch: sketch.SparseSign, SketchNNZ: 3}},
	}
	for _, tc := range cases {
		seq, err := Factor(tc.a, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
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
			if got.Rank != seq.Rank || got.Iters != seq.Iters {
				t.Fatalf("%s p=%d: rank/iters %d/%d vs %d/%d", tc.name, p, got.Rank, got.Iters, seq.Rank, seq.Iters)
			}
			if len(got.TimeHistory) != got.Iters {
				t.Errorf("%s p=%d: %d time samples for %d iterations", tc.name, p, len(got.TimeHistory), got.Iters)
			}
			if p == 1 {
				if !sameDense(got.U, seq.U) || !sameDense(got.B, seq.B) || !sameDense(got.V, seq.V) ||
					!slices.Equal(got.ErrHistory, seq.ErrHistory) || got.ErrIndicator != seq.ErrIndicator ||
					got.Converged != seq.Converged {
					t.Errorf("%s p=1: result differs from Factor", tc.name)
				}
				continue
			}
			// The approximation (not the individual factors, which may
			// pick equivalent bases) must agree to roundoff.
			diff := seq.Approx()
			diff.Sub(got.Approx())
			if diff.FrobNorm() > 1e-8*seq.NormA {
				t.Fatalf("%s p=%d: approximations diverge by %v", tc.name, p, diff.FrobNorm())
			}
		}
	}
}

func sameDense(a, b *mat.Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		if !slices.Equal(a.Row(i), b.Row(i)) {
			return false
		}
	}
	return true
}

func TestFactorDistConvergesAndVerifies(t *testing.T) {
	a := decayMatrix(70, 70, 40, 0.75, 23)
	tol := 1e-2
	var got *Result
	res := dist.Run(4, dist.DefaultConfig(), func(c *dist.Comm) {
		r, err := FactorDist(c, a, Options{BlockSize: 8, Tol: tol, Seed: 24})
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			got = r
		}
	})
	if got == nil || !got.Converged {
		t.Fatal("did not converge")
	}
	if te := TrueError(a, got); te >= 1.01*tol*got.NormA {
		t.Fatalf("true error %v", te)
	}
	for _, kernel := range []string{"SpMM", "orth/TSQR", "Bupdate"} {
		if res.MaxKernel(kernel) <= 0 {
			t.Errorf("kernel %q missing", kernel)
		}
	}
}

func TestFactorDistShowsModeledSpeedup(t *testing.T) {
	a := randSparse(150, 150, 0.08, 25)
	timeFor := func(p int) float64 {
		res := dist.Run(p, dist.DefaultConfig(), func(c *dist.Comm) {
			if _, err := FactorDist(c, a, Options{BlockSize: 8, Tol: 2e-1, Seed: 26}); err != nil {
				t.Error(err)
			}
		})
		return res.MaxTime()
	}
	t1, t4 := timeFor(1), timeFor(4)
	if t4 >= t1 {
		t.Fatalf("no modeled speedup: t1=%v t4=%v", t1, t4)
	}
}

func TestFactorDistIndicatorAgreesWithTruth(t *testing.T) {
	a := decayMatrix(50, 60, 25, 0.65, 27)
	var got *Result
	dist.Run(2, dist.DefaultConfig(), func(c *dist.Comm) {
		r, err := FactorDist(c, a, Options{BlockSize: 4, Tol: 1e-4, Seed: 28})
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			got = r
		}
	})
	if got == nil {
		t.Fatal("no result")
	}
	te := TrueError(a, got)
	if math.Abs(te-got.ErrIndicator) > 1e-6*got.NormA {
		t.Fatalf("indicator %v vs true error %v", got.ErrIndicator, te)
	}
}
