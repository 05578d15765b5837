package sparse

import (
	"math"
	"math/rand"
	"testing"

	"sparselr/internal/mat"
)

// Adversarial row distributions for the nnz-balanced partitioning: shapes
// chosen so uniform row splits would serialize (one chunk owns nearly all
// the work) or degenerate (chunks of empty rows). Each generator returns
// a matrix big enough to cross the parallel thresholds.

// advEmptyRows: 2000 rows, only every 40th row populated (dense-ish), so
// most chunk boundaries land in runs of empty rows.
func advEmptyRows(seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(2000, 600)
	for i := 0; i < 2000; i += 40 {
		for j := 0; j < 600; j += 1 + rng.Intn(2) {
			b.Add(i, j, rng.NormFloat64())
		}
	}
	return b.ToCSR()
}

// advOneDenseRow: power-law in the extreme — one row holds a full dense
// stripe while the rest hold a couple of entries each.
func advOneDenseRow(seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(1500, 800)
	hub := int(rng.Int63n(1500))
	for j := 0; j < 800; j++ {
		b.Add(hub, j, rng.NormFloat64())
	}
	for i := 0; i < 1500; i++ {
		for k := 0; k < 2; k++ {
			b.Add(i, rng.Intn(800), rng.NormFloat64())
		}
	}
	return b.ToCSR()
}

// advLastRowHeavy: all of the weight in the final row, so every balanced
// boundary collapses toward the end and most chunks are empty.
func advLastRowHeavy(seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(1200, 900)
	for j := 0; j < 900; j++ {
		b.Add(1199, j, rng.NormFloat64())
	}
	b.Add(0, 0, 1) // one stray entry so the matrix is not a single row
	return b.ToCSR()
}

var adversarialCases = []struct {
	name string
	gen  func(int64) *CSR
}{
	{"EmptyRows", advEmptyRows},
	{"OneDenseRow", advOneDenseRow},
	{"LastRowHeavy", advLastRowHeavy},
}

var adversarialProcs = []int{1, 2, 8}

func TestAdversarialMulDenseBitwise(t *testing.T) {
	for _, tc := range adversarialCases {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.gen(101)
			x := randDense(a.Cols, 48, 7)
			var serial *mat.Dense
			withMaxProcs(1, func() { serial = a.MulDense(x) })
			for _, p := range adversarialProcs {
				var got *mat.Dense
				withMaxProcs(p, func() { got = a.MulDense(x) })
				if !denseBitwiseEqual(serial, got) {
					t.Fatalf("GOMAXPROCS=%d: MulDense differs from serial", p)
				}
			}
		})
	}
}

func TestAdversarialMulTDenseBitwise(t *testing.T) {
	for _, tc := range adversarialCases {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.gen(103)
			x := randDense(a.Rows, 48, 9)
			var serial *mat.Dense
			withMaxProcs(1, func() { serial = a.MulTDense(x) })
			for _, p := range adversarialProcs {
				var got *mat.Dense
				withMaxProcs(p, func() { got = a.MulTDense(x) })
				if !denseBitwiseEqual(serial, got) {
					t.Fatalf("GOMAXPROCS=%d: MulTDense differs from serial", p)
				}
			}
		})
	}
}

func TestAdversarialSpGEMMBitwise(t *testing.T) {
	for _, tc := range adversarialCases {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.gen(107)
			// Square the pattern against a generic right operand with the
			// matching shape so the flop-balanced partition sees both the
			// skewed A rows and a realistic B.
			b := randCSR(a.Cols, a.Rows, 0.01, 13)
			serial := spGEMMSerial(a, b)
			for _, p := range adversarialProcs {
				var got *CSR
				withMaxProcs(p, func() { got = SpGEMM(a, b) })
				if !csrBitwiseEqual(serial, got) {
					t.Fatalf("GOMAXPROCS=%d: SpGEMM differs from serial", p)
				}
			}
		})
	}
}

func TestAdversarialResidualFrobNormBitwise(t *testing.T) {
	for _, tc := range adversarialCases {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.gen(109)
			l := randDense(a.Rows, 8, 15)
			r := randDense(8, a.Cols, 17)
			var serial float64
			withMaxProcs(1, func() { serial = a.ResidualFrobNorm(l, r) })
			for _, p := range adversarialProcs {
				var got float64
				withMaxProcs(p, func() { got = a.ResidualFrobNorm(l, r) })
				if math.Float64bits(got) != math.Float64bits(serial) {
					t.Fatalf("GOMAXPROCS=%d: ResidualFrobNorm %.17g differs from serial %.17g", p, got, serial)
				}
			}
		})
	}
}
