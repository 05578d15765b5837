package ordering

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"sparselr/internal/gen"
	"sparselr/internal/sparse"
)

// orderingHash FNV-64a-hashes the COLAMD permutation followed by the
// FillReducingOrder permutation of a.
func orderingHash(a *sparse.CSR) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, perm := range [][]int{COLAMD(a), FillReducingOrder(a)} {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(perm)))
		h.Write(buf[:])
		for _, j := range perm {
			binary.LittleEndian.PutUint64(buf[:], uint64(j))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// emptyColumnsMatrix spreads random entries over every third column and
// leaves the others empty, with a few empty rows as well.
func emptyColumnsMatrix() *sparse.CSR {
	a := randCSR(30, 40, 0.3, 61)
	b := sparse.NewBuilder(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		if i%7 == 3 {
			continue
		}
		cols, vals := a.RowView(i)
		for k, j := range cols {
			if j%3 == 0 {
				b.Add(i, j, vals[k])
			}
		}
	}
	return b.ToCSR()
}

// denseColumnMatrix is a sparse random matrix plus one column stored in
// every row.
func denseColumnMatrix() *sparse.CSR {
	a := randCSR(50, 35, 0.06, 62)
	b := sparse.NewBuilder(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.RowView(i)
		for k, j := range cols {
			if j != 17 {
				b.Add(i, j, vals[k])
			}
		}
		b.Add(i, 17, 1)
	}
	return b.ToCSR()
}

// circulantMatrix gives every row and every column the same pattern
// size, so every column starts with the same degree and ties decide.
func circulantMatrix(n int, offsets ...int) *sparse.CSR {
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for _, o := range offsets {
			b.Add(i, (i+o)%n, 1)
		}
	}
	return b.ToCSR()
}

// TestOrderingGolden pins COLAMD and FillReducingOrder on the small
// Table I analogs and on inputs that stress the degree queue: empty
// columns, a dense column, all-equal degrees. The hashes were captured
// from the lazy-deletion heap implementation; the ordering must not move
// when its data structures change.
func TestOrderingGolden(t *testing.T) {
	cases := []struct {
		name string
		a    *sparse.CSR
		want uint64
	}{
		{"empty-columns", emptyColumnsMatrix(), 0xf43d3827fb832ca5},
		{"all-empty", sparse.NewCSR(6, 9), 0xed723ed50072b765},
		{"dense-column", denseColumnMatrix(), 0x7f12956d76222b25},
		{"arrow-dense-first", arrowMatrix(40, true), 0xd691195013d9a0a5},
		{"all-equal-identity", circulantMatrix(25, 0), 0x67db5e8181615365},
		{"all-equal-circulant", circulantMatrix(33, 0, 1, 5), 0x3cc0ee657f02a825},
		{"fully-dense", randCSR(9, 12, 1, 63), 0x762b6e5a27e019e5},
	}
	tableI := map[string]uint64{
		"M1": 0x91f1ae3256d171c5,
		"M2": 0xeceeef4ab12f52e5,
		"M3": 0x8cde1390d9f09485,
		"M4": 0xa87b3f19e11faf69,
		"M5": 0x2fedebdf829b4f6d,
		"M6": 0xc349b1798ad63bc5,
	}
	for _, pm := range gen.TableI(gen.Small) {
		cases = append(cases, struct {
			name string
			a    *sparse.CSR
			want uint64
		}{pm.Label, pm.A, tableI[pm.Label]})
	}
	for _, c := range cases {
		if got := orderingHash(c.a); got != c.want {
			t.Errorf("%s: ordering drifted: hash %#016x, want %#016x", c.name, got, c.want)
		}
	}
}
