package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sparselr/internal/mat"
)

// schurCSR builds a rows×cols CSR directly, so stored explicit zeros stay
// stored. Half the values are small integers (−2…2, zero included),
// which makes exact cancellations frequent: products that sum to 0 and
// a − p = 0; the other half are Gaussian, so the accumulation order
// shows in the low bits. Every emptyEvery-th row is empty (0 disables),
// and row hub, if in range, stores every column.
func schurCSR(rows, cols int, density float64, emptyEvery, hub int, rng *rand.Rand) *CSR {
	a := NewCSR(rows, cols)
	for i := 0; i < rows; i++ {
		if emptyEvery > 0 && i%emptyEvery == emptyEvery-1 && i != hub {
			a.RowPtr[i+1] = len(a.Val)
			continue
		}
		for j := 0; j < cols; j++ {
			if i == hub || rng.Float64() < density {
				a.ColIdx = append(a.ColIdx, j)
				v := rng.NormFloat64()
				if rng.Intn(2) == 0 {
					v = float64(rng.Intn(5) - 2)
				}
				a.Val = append(a.Val, v)
			}
		}
		a.RowPtr[i+1] = len(a.Val)
	}
	return a
}

// tournamentPerm returns a column permutation laid out like
// qrtp.Permutation: the winners in the given (unsorted) order, then every
// other column ascending.
func tournamentPerm(winners []int, n int) []int {
	perm := append([]int(nil), winners...)
	for j := 0; j < n; j++ {
		if !slices.Contains(winners, j) {
			perm = append(perm, j)
		}
	}
	return perm
}

func invertPerm(perm []int) []int {
	pos := make([]int, len(perm))
	for p, j := range perm {
		pos[j] = p
	}
	return pos
}

func csrBits(a, b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || !slices.Equal(a.RowPtr, b.RowPtr) || !slices.Equal(a.ColIdx, b.ColIdx) {
		return false
	}
	for k := range a.Val {
		if math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			return false
		}
	}
	return true
}

func denseBits(a, b *mat.Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				return false
			}
		}
	}
	return true
}

// TestPermutedViewSchurMatchesReference checks the in-place block reads
// and the fused Schur pass bit for bit against the copies they replace:
// Ā = PermuteCols(PermuteRows(A)), its ExtractBlocks, and
// Add(1, Ā₂₂, −1, SpGEMM(X, Ā₁₂)) — over empty rows, a dense hub row,
// stored zeros, exact cancellations, winners left over by a shrunken k,
// rank row sub-ranges and GOMAXPROCS 1, 2 and 8.
func TestPermutedViewSchurMatchesReference(t *testing.T) {
	cases := []struct {
		name                  string
		m, n                  int
		density, xDensity     float64
		emptyEvery, hub, nWin int
		k                     int
	}{
		{"small", 30, 25, 0.2, 0.6, 0, -1, 4, 4},
		{"empty-rows", 80, 60, 0.15, 0.5, 3, -1, 8, 8},
		{"hub-row", 120, 90, 0.05, 0.7, 0, 50, 8, 8},
		{"leftover-winners", 100, 70, 0.2, 0.8, 5, 40, 8, 5},
		{"one-pivot", 40, 40, 0.3, 1, 0, 7, 6, 1},
		{"dense", 60, 50, 1, 1, 0, -1, 6, 6},
		// Above the parallel work threshold, so chunks split the rows.
		{"parallel", 700, 400, 0.2, 0.9, 11, 300, 16, 16},
		{"parallel-leftover", 700, 400, 0.2, 0.9, 0, 20, 16, 11},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(tc.name)) * 7919))
			a := schurCSR(tc.m, tc.n, tc.density, tc.emptyEvery, tc.hub, rng)
			rowOrder := rng.Perm(tc.m)
			perm := tournamentPerm(rng.Perm(tc.n)[:tc.nWin], tc.n)
			v := PermutedView{A: a, Rows: rowOrder, ColPos: invertPerm(perm), Sorted: tc.nWin}
			ref := a.PermuteRows(rowOrder).PermuteCols(perm)
			k := tc.k

			a12 := v.Block(0, k, k, tc.n)
			if !csrBits(a12, ref.ExtractBlock(0, k, k, tc.n)) {
				t.Fatal("Block(Ā₁₂) differs from ExtractBlock")
			}
			if !denseBits(v.DenseBlock(0, k, 0, k), ref.ExtractBlock(0, k, 0, k).ToDense()) {
				t.Fatal("DenseBlock(Ā₁₁) differs from ExtractBlock")
			}
			if !csrBits(v.Block(0, tc.m, 0, tc.n), ref) {
				t.Fatal("Block of the whole view differs from the permuted matrix")
			}
			trail := tc.m - k
			ranges := [][2]int{{0, trail}, {0, trail / 3}, {trail / 3, trail}, {trail / 2, trail / 2}}
			for _, r := range ranges {
				lo, hi := r[0], r[1]
				if !denseBits(v.DenseBlock(k+lo, k+hi, 0, k), ref.ExtractBlock(k+lo, k+hi, 0, k).ToDense()) {
					t.Fatalf("rows [%d,%d): DenseBlock(Ā₂₁) differs from ExtractBlock", lo, hi)
				}
				x := schurCSR(hi-lo, k, tc.xDensity, 4, 1, rng)
				a22 := ref.ExtractBlock(k+lo, k+hi, k, tc.n)
				want := Add(1, a22, -1, SpGEMM(x, a12))
				for _, p := range []int{1, 2, 8} {
					withMaxProcs(p, func() {
						got, nnz22 := v.Schur(k+lo, k+hi, k, x, a12)
						if !csrBits(got, want) {
							t.Fatalf("rows [%d,%d) GOMAXPROCS=%d: Schur differs from Add(Ā₂₂, −X·Ā₁₂)", lo, hi, p)
						}
						if nnz22 != a22.NNZ() {
							t.Fatalf("rows [%d,%d): nnz22 = %d, want %d", lo, hi, nnz22, a22.NNZ())
						}
					})
				}
			}
		})
	}
}

// TestSchurDropsExactZeros pins the zero handling on a hand-made row:
// a − p = 0, a zero product against a stored value, a zero product where
// Ā₂₂ is empty, and a stored zero of Ā₂₂ with no product entry.
func TestSchurDropsExactZeros(t *testing.T) {
	// View = A itself (identity orders), k = 1: Ā₁₂ is row 0 of A from
	// column 1 on, Ā₂₂ is row 1 from column 1 on.
	a := &CSR{Rows: 2, Cols: 7,
		RowPtr: []int{0, 5, 10},
		ColIdx: []int{1, 2, 3, 4, 5, 1, 2, 3, 4, 6},
		Val:    []float64{2, 1, 3, 0, 0, 0, 5, 6, 7, 0},
	}
	v := PermutedView{A: a, Rows: []int{0, 1}, ColPos: []int{0, 1, 2, 3, 4, 5, 6}, Sorted: 1}
	a12 := v.Block(0, 1, 1, 7) // [2 1 3 0 0 ·]
	x := &CSR{Rows: 1, Cols: 1, RowPtr: []int{0, 1}, ColIdx: []int{0}, Val: []float64{2}}
	// X·Ā₁₂ = [4 2 6 0 0 ·] against Ā₂₂ = [0 5 6 7 · 0]: 0−4, 5−2,
	// 6−6 = 0 (dropped), 7 − (zero product) = 7, zero product alone
	// (dropped), stored zero alone (dropped).
	got, nnz22 := v.Schur(1, 2, 1, x, a12)
	want := Add(1, v.Block(1, 2, 1, 7), -1, SpGEMM(x, a12))
	if !csrBits(got, want) || nnz22 != 5 {
		t.Fatalf("Schur = %v %v (nnz22 %d), want %v %v", got.ColIdx, got.Val, nnz22, want.ColIdx, want.Val)
	}
	if fmt.Sprint(got.ColIdx, got.Val) != "[0 1 3] [-4 3 7]" {
		t.Fatalf("Schur row = %v %v", got.ColIdx, got.Val)
	}
}
