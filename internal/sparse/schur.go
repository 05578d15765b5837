package sparse

import (
	"runtime"

	"sparselr/internal/mat"
)

// PermutedView reads the blocks of P_r·A·P_c straight out of A, without
// forming the permuted matrix: row i of the view is row Rows[i] of A, and
// column j of A sits at view column ColPos[j]. The view columns at
// positions ≥ Sorted must hold A's columns in ascending order (the
// non-winners of a tournament permutation, see qrtp.Permutation), so the
// part of a row that lands there comes out sorted as stored; only the
// few entries landing before Sorted are sorted per row, by insertion, so
// Sorted should be small.
type PermutedView struct {
	A      *CSR
	Rows   []int
	ColPos []int
	Sorted int
}

// rowBlock appends to cols/vals the entries of view row i whose view
// column p lies in [c0, c1), as (p − c0, value) in ascending p. Stored
// zeros are kept, as ExtractBlock keeps them.
func (v PermutedView) rowBlock(i, c0, c1 int, cols []int, vals []float64) ([]int, []float64) {
	acols, avals := v.A.RowView(v.Rows[i])
	if c0 < v.Sorted {
		head := len(cols)
		for k, j := range acols {
			if p := v.ColPos[j]; p >= c0 && p < min(c1, v.Sorted) {
				cols = append(cols, p-c0)
				vals = append(vals, avals[k])
			}
		}
		insertionSort(cols[head:], vals[head:])
	}
	if c1 > v.Sorted {
		lo := max(c0, v.Sorted)
		for k, j := range acols {
			if p := v.ColPos[j]; p >= lo && p < c1 {
				cols = append(cols, p-c0)
				vals = append(vals, avals[k])
			}
		}
	}
	return cols, vals
}

// insertionSort sorts the (col, val) pairs by col.
func insertionSort(cols []int, vals []float64) {
	for x := 1; x < len(cols); x++ {
		c, v := cols[x], vals[x]
		y := x
		for ; y > 0 && cols[y-1] > c; y-- {
			cols[y], vals[y] = cols[y-1], vals[y-1]
		}
		cols[y], vals[y] = c, v
	}
}

// Block returns rows [r0, r1) and columns [c0, c1) of the view as a new
// CSR matrix, bitwise ExtractBlock of the permuted matrix.
func (v PermutedView) Block(r0, r1, c0, c1 int) *CSR {
	out := NewCSR(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		out.ColIdx, out.Val = v.rowBlock(i, c0, c1, out.ColIdx, out.Val)
		out.RowPtr[i-r0+1] = len(out.Val)
	}
	return out
}

// DenseBlock returns rows [r0, r1) and columns [c0, c1) of the view as a
// dense matrix.
func (v PermutedView) DenseBlock(r0, r1, c0, c1 int) *mat.Dense {
	out := mat.NewDense(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		acols, avals := v.A.RowView(v.Rows[i])
		orow := out.Row(i - r0)
		for k, j := range acols {
			if p := v.ColPos[j]; p >= c0 && p < c1 {
				orow[p-c0] = avals[k]
			}
		}
	}
	return out
}

// Schur returns the Schur-complement rows S = V₂₂ − X·B, where V₂₂ is
// rows [r0, r1) and columns [c0, A.Cols) of the view, X is (r1−r0)×k and
// B is k×(A.Cols−c0). It is bitwise
// Add(1, view.Block(r0, r1, c0, A.Cols), −1, SpGEMM(X, B)): the product
// row is accumulated in SpGEMM's order, its exact zeros are dropped, and
// it is merged with the V₂₂ row the way Add merges, so exact
// cancellations and stored zeros of V₂₂ are dropped too. nnz22 is the
// number of stored entries of V₂₂, the second term of the update's cost.
//
// One pass writes S: rows run in parallel over flop-balanced chunks (as
// in SpGEMM) when the work is large, each chunk writing its rows into
// its own region of one output array presized by the per-row bound
// min(width, nnz(A row) + flops); the regions are then closed up in
// place. Every row is computed the same way on either path, so the
// result does not depend on GOMAXPROCS.
func (v PermutedView) Schur(r0, r1, c0 int, x, b *CSR) (s *CSR, nnz22 int) {
	rows, width := r1-r0, v.A.Cols-c0
	if x.Rows != rows || x.Cols != b.Rows || b.Cols != width {
		panic("sparse: Schur dimension mismatch")
	}
	s = NewCSR(rows, width)
	if rows == 0 {
		return s, 0
	}
	// Per-row work (Gustavson flops plus the A row) balances the chunks;
	// the per-row output bound presizes them.
	work := make([]int, rows+1)
	bound := make([]int, rows+1)
	for i := 0; i < rows; i++ {
		f := 0
		for _, j := range x.ColIdx[x.RowPtr[i]:x.RowPtr[i+1]] {
			f += b.RowPtr[j+1] - b.RowPtr[j]
		}
		ar := v.Rows[r0+i]
		an := v.A.RowPtr[ar+1] - v.A.RowPtr[ar]
		work[i+1] = work[i] + f + an
		bound[i+1] = bound[i] + min(width, f+an)
	}
	nchunks := 1
	if runtime.GOMAXPROCS(0) >= 2 && work[rows] >= spgemmParallelThreshold {
		nchunks = runtime.GOMAXPROCS(0)
	}
	bounds := chunksByPrefix(work, nchunks)
	nchunks = len(bounds) - 1
	s.ColIdx = make([]int, bound[rows])
	s.Val = make([]float64, bound[rows])
	written := make([]int, nchunks)
	counted := make([]int, nchunks)
	mat.ParallelFor(nchunks, 1, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			lo, hi := bounds[c], bounds[c+1]
			if lo == hi {
				continue
			}
			w := newSchurWork(width)
			at := bound[lo]
			for i := lo; i < hi; i++ {
				n, n22 := v.schurRow(r0, c0, i, x, b, w, s.ColIdx[at:], s.Val[at:])
				at += n
				counted[c] += n22
				s.RowPtr[i+1] = n
			}
			written[c] = at - bound[lo]
		}
	})
	// Close up the chunk regions, in order, and prefix the row counts.
	at := 0
	for c := 0; c < nchunks; c++ {
		lo := bounds[c]
		if at != bound[lo] {
			copy(s.ColIdx[at:], s.ColIdx[bound[lo]:bound[lo]+written[c]])
			copy(s.Val[at:], s.Val[bound[lo]:bound[lo]+written[c]])
		}
		at += written[c]
		nnz22 += counted[c]
	}
	for i := 0; i < rows; i++ {
		s.RowPtr[i+1] += s.RowPtr[i]
	}
	s.ColIdx, s.Val = s.ColIdx[:at], s.Val[:at]
	return s, nnz22
}

// schurWork is one chunk's scratch: the sparse accumulator of the product
// row and the V₂₂ row in view order.
type schurWork struct {
	acc     []float64
	mark    []int
	pattern []int
	cols    []int
	vals    []float64
}

func newSchurWork(width int) *schurWork {
	w := &schurWork{acc: make([]float64, width), mark: make([]int, width)}
	for j := range w.mark {
		w.mark[j] = -1
	}
	return w
}

// schurRow writes row i of S into cols/vals and returns the entry count
// and the number of stored V₂₂ entries it read.
func (v PermutedView) schurRow(r0, c0, i int, x, b *CSR, w *schurWork, cols []int, vals []float64) (n, n22 int) {
	w.pattern = spGEMMRow(x, b, i, w.acc, w.mark, w.pattern[:0])
	w.cols, w.vals = v.rowBlock(r0+i, c0, v.A.Cols, w.cols[:0], w.vals[:0])
	ac, av, pat := w.cols, w.vals, w.pattern
	ka, kp := 0, 0
	for ka < len(ac) || kp < len(pat) {
		var j int
		var val float64
		switch {
		case kp >= len(pat) || (ka < len(ac) && ac[ka] < pat[kp]):
			j, val = ac[ka], av[ka]
			ka++
		case ka >= len(ac) || pat[kp] < ac[ka]:
			j, val = pat[kp], -w.acc[pat[kp]]
			kp++
		default:
			j, val = ac[ka], av[ka]-w.acc[ac[ka]]
			ka++
			kp++
		}
		// SpGEMM drops exactly-zero products before Add merges: a ±0
		// product leaves a nonzero a unchanged here too, and every zero
		// result (cancellation, stored zero, zero product) is dropped.
		if val != 0 {
			cols[n] = j
			vals[n] = val
			n++
		}
	}
	return n, len(ac)
}
