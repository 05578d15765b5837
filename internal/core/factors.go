package core

import (
	"errors"
	"fmt"

	"sparselr/internal/mat"
	"sparselr/internal/sparse"
)

// Factor is one stored factor of an approximation under the name the
// serving API exports it by. Exactly one of Dense, CSR and Vec is set,
// and it is the result's own storage, not a copy.
type Factor struct {
	Name  string
	Dense *mat.Dense
	CSR   *sparse.CSR
	Vec   []float64
}

// Factors lists the approximation's factors in their documented order:
// L,U (LU_CRTP, ILUT_CRTP) / Q,B (RandQB_EI) / U,B,V (RandUBV) / U,S,V
// (TSVD, RSVD) / Q (ARRF) / C,U,R (CUR, ID2, ACA). It is the one place a
// method declares its result layout: the entry count, the byte cost,
// the serving export and frame validation all derive from it. A result
// with no method result set lists no factors.
func (ap *Approximation) Factors() []Factor {
	switch {
	case ap.LU != nil:
		return []Factor{{Name: "L", CSR: ap.LU.L}, {Name: "U", CSR: ap.LU.U}}
	case ap.QB != nil:
		return []Factor{{Name: "Q", Dense: ap.QB.Q}, {Name: "B", Dense: ap.QB.B}}
	case ap.UBV != nil:
		return []Factor{{Name: "U", Dense: ap.UBV.U}, {Name: "B", Dense: ap.UBV.B}, {Name: "V", Dense: ap.UBV.V}}
	case ap.SVD != nil:
		return []Factor{{Name: "U", Dense: ap.SVD.U}, vector("S", ap.SVD.S), {Name: "V", Dense: ap.SVD.V}}
	case ap.RS != nil:
		return []Factor{{Name: "U", Dense: ap.RS.U}, vector("S", ap.RS.S), {Name: "V", Dense: ap.RS.V}}
	case ap.ARRF != nil:
		return []Factor{{Name: "Q", Dense: ap.ARRF.Q}}
	case ap.CUR != nil:
		return []Factor{{Name: "C", CSR: ap.CUR.C}, {Name: "U", Dense: ap.CUR.U}, {Name: "R", CSR: ap.CUR.R}}
	}
	return nil
}

// vector lists a vector factor. A rank-0 vector is nil (and gob decodes
// any empty slice as nil), so it is listed as empty rather than read as
// a missing factor.
func vector(name string, v []float64) Factor {
	if v == nil {
		v = []float64{}
	}
	return Factor{Name: name, Vec: v}
}

// entries counts the factor's stored entries: the nonzeros of a sparse
// factor, rows·cols of a dense one, the length of a vector.
func (f Factor) entries() int {
	switch {
	case f.CSR != nil:
		return f.CSR.NNZ()
	case f.Dense != nil:
		return f.Dense.Rows * f.Dense.Cols
	}
	return len(f.Vec)
}

// FactorBytes estimates the resident size of the factors: 12 bytes per
// sparse nonzero (8-byte value, 4-byte column index) plus 4 per row
// pointer, 8 per dense or vector entry, and 8 per skeleton index of the
// CUR family. Bookkeeping fields are not counted.
func (ap *Approximation) FactorBytes() int64 {
	const f64 = 8
	var n int64
	for _, f := range ap.Factors() {
		if f.CSR != nil {
			n += int64(f.CSR.NNZ())*12 + int64(f.CSR.Rows)*4
		} else {
			n += int64(f.entries()) * f64
		}
	}
	if ap.CUR != nil {
		n += int64(len(ap.CUR.RowIdx)+len(ap.CUR.ColIdx)) * f64
	}
	return n
}

// Validate checks the structure of every factor, so a result decoded
// from untrusted bytes cannot index out of range later: no factor of a
// set method result is nil, dense data covers its shape and stride, and
// CSR row pointers, column indices and values agree. Values themselves
// are not checked. A result with no factors is valid.
func (ap *Approximation) Validate() error {
	for _, f := range ap.Factors() {
		var err error
		switch {
		case f.CSR != nil:
			err = validCSR(f.CSR)
		case f.Dense != nil:
			err = validDense(f.Dense)
		case f.Vec == nil:
			err = errors.New("missing")
		}
		if err != nil {
			return fmt.Errorf("core: %v factor %s: %w", ap.Method, f.Name, err)
		}
	}
	return nil
}

func validDense(d *mat.Dense) error {
	if d.Rows < 0 || d.Cols < 0 {
		return fmt.Errorf("negative shape %d×%d", d.Rows, d.Cols)
	}
	if d.Rows == 0 || d.Cols == 0 {
		return nil
	}
	if d.Stride < d.Cols {
		return fmt.Errorf("stride %d below %d columns", d.Stride, d.Cols)
	}
	// Need len(Data) ≥ (Rows−1)·Stride + Cols, checked without overflow.
	if spare := len(d.Data) - d.Cols; spare < 0 || d.Rows-1 > spare/d.Stride {
		return fmt.Errorf("%d×%d (stride %d) holds only %d values", d.Rows, d.Cols, d.Stride, len(d.Data))
	}
	return nil
}

func validCSR(a *sparse.CSR) error {
	if a.Rows < 0 || a.Cols < 0 {
		return fmt.Errorf("negative shape %d×%d", a.Rows, a.Cols)
	}
	if len(a.RowPtr) != a.Rows+1 {
		return fmt.Errorf("%d row pointers for %d rows", len(a.RowPtr), a.Rows)
	}
	if len(a.Val) != len(a.ColIdx) {
		return fmt.Errorf("%d values for %d column indices", len(a.Val), len(a.ColIdx))
	}
	if a.RowPtr[0] != 0 || a.RowPtr[a.Rows] != len(a.ColIdx) {
		return fmt.Errorf("row pointers span [%d,%d], want [0,%d]", a.RowPtr[0], a.RowPtr[a.Rows], len(a.ColIdx))
	}
	for i := 0; i < a.Rows; i++ {
		if a.RowPtr[i+1] < a.RowPtr[i] {
			return fmt.Errorf("row pointers decrease at row %d", i)
		}
	}
	for _, j := range a.ColIdx {
		if j < 0 || j >= a.Cols {
			return fmt.Errorf("column index %d outside %d columns", j, a.Cols)
		}
	}
	return nil
}
