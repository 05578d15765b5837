package mat

import (
	"math"
	"testing"
	"testing/quick"
)

// orthogonalityError returns ‖QᵀQ − I‖∞.
func orthogonalityError(q *Dense) float64 {
	g := MulT(q, q)
	g.Sub(Identity(q.Cols))
	return g.InfNorm()
}

func TestQRReconstruction(t *testing.T) {
	for _, dims := range [][2]int{{8, 5}, {5, 5}, {5, 8}, {20, 3}, {1, 1}} {
		a := randDense(dims[0], dims[1], int64(dims[0]*100+dims[1]))
		q, r := QR(a)
		got := Mul(q, r)
		if !got.Equal(a, 1e-11) {
			t.Fatalf("QR reconstruction failed for %v", dims)
		}
		if e := orthogonalityError(q); e > 1e-12 {
			t.Fatalf("Q not orthonormal for %v: %v", dims, e)
		}
		// R upper trapezoidal.
		for i := 0; i < r.Rows; i++ {
			for j := 0; j < i && j < r.Cols; j++ {
				if r.At(i, j) != 0 {
					t.Fatalf("R not upper triangular at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestQRPropertyRandom(t *testing.T) {
	f := func(seed int64) bool {
		a := randDense(9, 4, seed)
		q, r := QR(a)
		return Mul(q, r).Equal(a, 1e-10) && orthogonalityError(q) < 1e-11
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQRZeroMatrix(t *testing.T) {
	a := NewDense(4, 3)
	q, r := QR(a)
	if !Mul(q, r).Equal(a, 0) {
		t.Fatal("QR of zero matrix must reconstruct zero")
	}
}

func TestROnlyMatchesQR(t *testing.T) {
	a := randDense(10, 4, 77)
	_, r := QR(a)
	r2 := ROnly(a)
	// R is unique up to the sign of each row; compare |R|.
	for i := 0; i < r.Rows; i++ {
		for j := 0; j < r.Cols; j++ {
			if math.Abs(math.Abs(r.At(i, j))-math.Abs(r2.At(i, j))) > 1e-12 {
				t.Fatal("ROnly differs from QR's R")
			}
		}
	}
}

func TestOrthFullRank(t *testing.T) {
	a := randDense(10, 4, 41)
	q := Orth(a)
	if q.Cols != 4 {
		t.Fatalf("Orth rank = %d, want 4", q.Cols)
	}
	if e := orthogonalityError(q); e > 1e-12 {
		t.Fatalf("Orth output not orthonormal: %v", e)
	}
	// Range check: a's columns must be representable as q·(qᵀa).
	proj := Mul(q, MulT(q, a))
	if !proj.Equal(a, 1e-10) {
		t.Fatal("Orth basis does not span range(a)")
	}
}

func TestOrthRankDeficient(t *testing.T) {
	// Build a rank-2 matrix from two outer products.
	u := randDense(8, 2, 42)
	v := randDense(5, 2, 43)
	a := MulBT(u, v)
	q := Orth(a)
	if q.Cols != 2 {
		t.Fatalf("Orth rank = %d, want 2", q.Cols)
	}
	proj := Mul(q, MulT(q, a))
	if !proj.Equal(a, 1e-10) {
		t.Fatal("rank-deficient Orth basis does not span range(a)")
	}
}

func TestOrthZero(t *testing.T) {
	q := Orth(NewDense(5, 3))
	if q.Cols != 0 || q.Rows != 5 {
		t.Fatalf("Orth of zero = %d×%d, want 5×0", q.Rows, q.Cols)
	}
	q = Orth(NewDense(0, 0))
	if q.Rows != 0 {
		t.Fatal("Orth of empty should be empty")
	}
}

func TestQRCPReconstruction(t *testing.T) {
	a := randDense(9, 6, 44)
	q, r, perm := QRCP(a)
	ap := a.PermuteCols(perm)
	if !Mul(q, r).Equal(ap, 1e-11) {
		t.Fatal("QRCP reconstruction failed")
	}
	if e := orthogonalityError(q); e > 1e-12 {
		t.Fatalf("QRCP Q not orthonormal: %v", e)
	}
}

func TestQRCPDiagonalNonIncreasing(t *testing.T) {
	f := func(seed int64) bool {
		a := randDense(12, 7, seed)
		_, r, _ := QRCP(a)
		for i := 1; i < r.Rows && i < r.Cols; i++ {
			// Allow a tiny slack for roundoff in the norm downdating.
			if math.Abs(r.At(i, i)) > math.Abs(r.At(i-1, i-1))*(1+1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQRCPPermIsPermutation(t *testing.T) {
	a := randDense(6, 10, 45)
	_, _, perm := QRCP(a)
	seen := make([]bool, 10)
	for _, p := range perm {
		if p < 0 || p >= 10 || seen[p] {
			t.Fatal("perm is not a valid permutation")
		}
		seen[p] = true
	}
}

func TestQRCPRevealsRank(t *testing.T) {
	// Rank-3 matrix: QRCP diagonal should collapse after 3 entries.
	u := randDense(10, 3, 46)
	v := randDense(7, 3, 47)
	a := MulBT(u, v)
	_, r, _ := QRCP(a)
	if math.Abs(r.At(2, 2)) < 1e-10 {
		t.Fatal("rank-3 matrix should have 3 significant diagonal entries")
	}
	for i := 3; i < r.Rows && i < r.Cols; i++ {
		if math.Abs(r.At(i, i)) > 1e-10*math.Abs(r.At(0, 0)) {
			t.Fatalf("diagonal entry %d should be negligible, got %v", i, r.At(i, i))
		}
	}
}

func TestQRCPWideMatrix(t *testing.T) {
	a := randDense(4, 9, 48)
	q, r, perm := QRCP(a)
	if !Mul(q, r).Equal(a.PermuteCols(perm), 1e-11) {
		t.Fatal("QRCP failed on wide matrix")
	}
}

// qrcpCases are the inputs of the QRCP equivalence tests: both aspect
// ratios, rank deficiency, zero columns, tied column norms, and a panel
// tall enough for the row-parallel reflector update.
func qrcpCases() map[string]*Dense {
	lowRank := Mul(randDense(30, 3, 52), randDense(3, 12, 53))
	zeroCols := randDense(25, 10, 54)
	for _, j := range []int{0, 4, 9} {
		for i := 0; i < zeroCols.Rows; i++ {
			zeroCols.Set(i, j, 0)
		}
	}
	// Every column of ties is a signed permutation of the same entries,
	// so all column norms are equal and the pivot falls to the lowest
	// index.
	ties := NewDense(12, 9)
	for i := 0; i < ties.Rows; i++ {
		for j := 0; j < ties.Cols; j++ {
			v := float64((i+j)%ties.Rows + 1)
			if (i*j)%3 == 1 {
				v = -v
			}
			ties.Set(i, j, v)
		}
	}
	src := randDense(15, 6, 55)
	dup := NewDense(15, 9)
	for i := 0; i < dup.Rows; i++ {
		for j, p := range []int{0, 1, 2, 3, 4, 5, 0, 2, 4} {
			dup.Set(i, j, src.At(i, p))
		}
	}
	return map[string]*Dense{
		"tall":     randDense(8, 6, 49),
		"wide":     randDense(5, 14, 56),
		"square":   randDense(10, 10, 57),
		"lowRank":  lowRank,
		"zeroCols": zeroCols,
		"zero":     NewDense(6, 4),
		"ties":     ties,
		"dupCols":  dup,
		"parallel": randDense(2100, 16, 58),
	}
}

func bitsEqual(a, b *Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		x, y := a.Row(i), b.Row(i)
		for j := range x {
			if math.Float64bits(x[j]) != math.Float64bits(y[j]) {
				return false
			}
		}
	}
	return true
}

func TestQRCPSelectAgreesWithQRCP(t *testing.T) {
	for name, a := range qrcpCases() {
		_, rFull, permFull := QRCP(a)
		r, perm := QRCPSelect(a)
		for i := range perm {
			if perm[i] != permFull[i] {
				t.Fatalf("%s: QRCPSelect permutation differs", name)
			}
		}
		if !bitsEqual(r, rFull) {
			t.Fatalf("%s: QRCPSelect R differs", name)
		}
	}
}

func TestQRCPPivotsMatchQRCPPrefix(t *testing.T) {
	for name, a := range qrcpCases() {
		_, _, perm := QRCP(a)
		for k := 1; k <= a.Cols; k++ {
			f := a.Clone()
			got := QRCPPivots(f, k)
			if len(got) != k {
				t.Fatalf("%s k=%d: %d pivots", name, k, len(got))
			}
			for i := range got {
				if got[i] != perm[i] {
					t.Fatalf("%s k=%d: pivot %d is %d, QRCP has %d", name, k, i, got[i], perm[i])
				}
			}
		}
		if got := QRCPPivots(a.Clone(), a.Cols+3); len(got) != a.Cols {
			t.Fatalf("%s: k > n returned %d pivots, want %d", name, len(got), a.Cols)
		}
	}
}

func TestApplyQAgainstExplicit(t *testing.T) {
	a := randDense(7, 4, 50)
	qf := houseQR(a)
	qFull := qf.thinQ(7) // full 7×7 Q
	if e := orthogonalityError(qFull); e > 1e-12 {
		t.Fatalf("full Q not orthogonal: %v", e)
	}
	b := randDense(7, 3, 51)
	qb := b.Clone()
	qf.applyQ(qb)
	if !qb.Equal(Mul(qFull, b), 1e-11) {
		t.Fatal("applyQ disagrees with explicit Q")
	}
	qtb := b.Clone()
	qf.applyQT(qtb)
	if !qtb.Equal(MulT(qFull, b), 1e-11) {
		t.Fatal("applyQT disagrees with explicit Qᵀ")
	}
}
