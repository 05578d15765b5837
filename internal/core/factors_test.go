package core

import (
	"strings"
	"testing"

	"sparselr/internal/lucrtp"
	"sparselr/internal/mat"
	"sparselr/internal/randqb"
	"sparselr/internal/sparse"
	"sparselr/internal/tsvd"
)

// TestFactorsCountsPerMethod pins the entry count and byte cost derived
// from Factors against each method's factor layout written out by hand,
// on the sequential and (where one exists) the distributed path.
func TestFactorsCountsPerMethod(t *testing.T) {
	a := testMatrix(5)
	dense := func(d *mat.Dense) (int, int64) { return d.Rows * d.Cols, int64(d.Rows*d.Cols) * 8 }
	csr := func(c *sparse.CSR) (int, int64) { return c.NNZ(), int64(c.NNZ())*12 + int64(c.Rows)*4 }
	for _, mi := range Methods() {
		procs := []int{0}
		if mi.Dist {
			procs = append(procs, 2)
		}
		for _, p := range procs {
			ap, err := Approximate(a, Options{Method: mi.Method, BlockSize: 8, Tol: 1e-2, Seed: 7, Procs: p})
			if err != nil {
				t.Fatalf("%s procs=%d: %v", mi.Name, p, err)
			}
			var nnz int
			var bytes int64
			add := func(n int, b int64) { nnz += n; bytes += b }
			switch {
			case ap.LU != nil:
				add(csr(ap.LU.L))
				add(csr(ap.LU.U))
			case ap.QB != nil:
				add(dense(ap.QB.Q))
				add(dense(ap.QB.B))
			case ap.UBV != nil:
				add(dense(ap.UBV.U))
				add(dense(ap.UBV.B))
				add(dense(ap.UBV.V))
			case ap.SVD != nil:
				add(dense(ap.SVD.U))
				add(len(ap.SVD.S), int64(len(ap.SVD.S))*8)
				add(dense(ap.SVD.V))
			case ap.RS != nil:
				add(dense(ap.RS.U))
				add(len(ap.RS.S), int64(len(ap.RS.S))*8)
				add(dense(ap.RS.V))
			case ap.ARRF != nil:
				add(dense(ap.ARRF.Q))
			case ap.CUR != nil:
				add(csr(ap.CUR.C))
				add(dense(ap.CUR.U))
				add(csr(ap.CUR.R))
				add(0, int64(len(ap.CUR.RowIdx)+len(ap.CUR.ColIdx))*8)
			default:
				t.Fatalf("%s: no result set", mi.Name)
			}
			if ap.NNZFactors != nnz || nnz <= 0 {
				t.Errorf("%s procs=%d: NNZFactors = %d, want %d", mi.Name, p, ap.NNZFactors, nnz)
			}
			if got := ap.FactorBytes(); got != bytes {
				t.Errorf("%s procs=%d: FactorBytes = %d, want %d", mi.Name, p, got, bytes)
			}
			if err := ap.Validate(); err != nil {
				t.Errorf("%s procs=%d: fresh result fails Validate: %v", mi.Name, p, err)
			}
		}
	}
}

// TestFactorsShareStorage checks that Factors hands out the result's
// own matrices, not copies.
func TestFactorsShareStorage(t *testing.T) {
	ap, err := Approximate(testMatrix(6), Options{Method: RandQBEI, BlockSize: 8, Tol: 1e-2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fs := ap.Factors()
	if len(fs) != 2 || fs[0].Dense != ap.QB.Q || fs[1].Dense != ap.QB.B {
		t.Fatalf("Factors does not reference the QB result: %+v", fs)
	}
}

func TestValidateRejectsMalformedFactors(t *testing.T) {
	goodCSR := func() *sparse.CSR {
		b := sparse.NewBuilder(3, 4)
		b.Add(0, 1, 1)
		b.Add(2, 3, 2)
		b.Add(2, 0, 3)
		return b.ToCSR()
	}
	lu := func(mut func(c *sparse.CSR)) *Approximation {
		l := goodCSR()
		mut(l)
		return &Approximation{Method: LUCRTP, LU: &lucrtp.Result{L: l, U: goodCSR()}}
	}
	cases := []struct {
		name string
		ap   *Approximation
		want string // "" = valid
	}{
		{"no factors", &Approximation{Method: RandQBEI, Rank: 3}, ""},
		{"rank-0 SVD", &Approximation{Method: TSVD, SVD: &tsvd.Result{U: mat.NewDense(5, 0), V: mat.NewDense(4, 0)}}, ""},
		{"valid CSR", lu(func(*sparse.CSR) {}), ""},
		{"nil dense", &Approximation{Method: RandQBEI, QB: &randqb.Result{Q: mat.NewDense(3, 2)}}, "factor B: missing"},
		{"short dense", &Approximation{Method: RandQBEI, QB: &randqb.Result{
			Q: &mat.Dense{Rows: 1000, Cols: 4, Stride: 4, Data: []float64{1, 2, 3}}, B: mat.NewDense(4, 9),
		}}, "factor Q: 1000×4 (stride 4) holds only 3 values"},
		{"short strided dense", &Approximation{Method: RandQBEI, QB: &randqb.Result{
			Q: &mat.Dense{Rows: 3, Cols: 2, Stride: 5, Data: make([]float64, 11)}, B: mat.NewDense(2, 2),
		}}, "holds only 11 values"},
		{"stride below cols", &Approximation{Method: RandQBEI, QB: &randqb.Result{
			Q: &mat.Dense{Rows: 2, Cols: 3, Stride: 2, Data: make([]float64, 6)}, B: mat.NewDense(3, 2),
		}}, "stride 2 below 3 columns"},
		{"row pointer count", lu(func(c *sparse.CSR) { c.RowPtr = c.RowPtr[:3] }), "3 row pointers for 3 rows"},
		{"row pointers decrease", lu(func(c *sparse.CSR) { c.RowPtr[1] = 2; c.RowPtr[2] = 1 }), "decrease at row 1"},
		{"row pointer span", lu(func(c *sparse.CSR) { c.RowPtr[3] = 2 }), "want [0,3]"},
		{"column out of range", lu(func(c *sparse.CSR) { c.ColIdx[1] = 4 }), "column index 4 outside 4 columns"},
		{"negative column", lu(func(c *sparse.CSR) { c.ColIdx[0] = -1 }), "column index -1"},
		{"values vs indices", lu(func(c *sparse.CSR) { c.Val = c.Val[:2] }), "2 values for 3 column indices"},
	}
	for _, tc := range cases {
		err := tc.ap.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
