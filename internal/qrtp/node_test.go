package qrtp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sparselr/internal/mat"
	"sparselr/internal/sparse"
)

// denseNode is the reference tournament game: full QRCP on the dense
// m-row panel of the candidates, keeping the first k pivots.
func denseNode(a *sparse.CSC, cand []int, k int) []int {
	if len(cand) <= k {
		return append([]int(nil), cand...)
	}
	_, _, perm := mat.QRCP(a.ExtractColsDense(cand))
	win := make([]int, k)
	for i := range win {
		win[i] = cand[perm[i]]
	}
	return win
}

// checkPanelBits factors the compacted panel of cand and the dense m-row
// panel for k steps and checks that they agree bit for bit: the same
// pivots, every kept row equal to its dense row, and every dropped row
// still zero in the dense factorization.
func checkPanelBits(t *testing.T, name string, tr *tournament, cand []int) {
	t.Helper()
	f := tr.panel(cand)
	rows := slices.Clone(tr.rows)
	got := mat.QRCPPivots(f, tr.k)
	d := tr.a.ExtractColsDense(cand)
	want := mat.QRCPPivots(d, tr.k)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: compacted pivots %v, dense %v", name, got, want)
	}
	kept := make([]bool, d.Rows)
	for p, i := range rows {
		kept[i] = true
		for j, v := range f.Row(p) {
			if math.Float64bits(v) != math.Float64bits(d.At(i, j)) {
				t.Fatalf("%s: panel row %d (row %d of A) col %d is %v, dense %v", name, p, i, j, v, d.At(i, j))
			}
		}
	}
	for i := 0; i < d.Rows; i++ {
		if kept[i] {
			continue
		}
		for j, v := range d.Row(i) {
			if v != 0 {
				t.Fatalf("%s: dropped row %d col %d is %v in the dense factorization", name, i, j, v)
			}
		}
	}
}

// build assembles an m×n CSC from (row, col, value) triples.
func build(m, n int, ents [][3]float64) *sparse.CSC {
	b := sparse.NewBuilder(m, n)
	for _, e := range ents {
		b.Add(int(e[0]), int(e[1]), e[2])
	}
	return b.ToCSR().ToCSC()
}

func colRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for j := lo; j < hi; j++ {
		out = append(out, j)
	}
	return out
}

func TestCompactedNodeMatchesDensePanel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randEnts := func(m, n, perCol, rowLo int) [][3]float64 {
		var ents [][3]float64
		for j := 0; j < n; j++ {
			for x := 0; x < perCol; x++ {
				ents = append(ents, [3]float64{float64(rowLo + rng.Intn(m-rowLo)), float64(j), rng.NormFloat64()})
			}
		}
		return ents
	}
	// Hub row 17 holds an entry in every column; the rest is sparse.
	hub := randEnts(60, 24, 2, 0)
	for j := 0; j < 24; j++ {
		hub = append(hub, [3]float64{17, float64(j), 0.5 + rng.Float64()})
	}
	// Columns 3, 8 and 11 are empty; the others share one pattern and
	// one set of magnitudes, so their norms tie.
	var tied [][3]float64
	for j := 0; j < 12; j++ {
		if j == 3 || j == 8 || j == 11 {
			continue
		}
		for x, i := range []int{2, 9, 20} {
			v := float64(x + 1)
			if j%2 == 1 {
				v = -v
			}
			tied = append(tied, [3]float64{float64(i), float64(j), v})
		}
	}
	cases := []struct {
		name string
		a    *sparse.CSC
		k    int
		cand []int
	}{
		{"emptyCols", build(30, 12, randEnts(30, 12, 3, 0)[:20]), 4, colRange(0, 12)},
		{"allZero", build(30, 20, nil), 4, colRange(0, 8)},
		{"tiedNorms", build(25, 12, tied), 3, colRange(0, 12)},
		{"mBelow2k", build(5, 16, randEnts(5, 16, 2, 0)), 4, colRange(0, 8)},
		{"mBelowK", build(3, 16, randEnts(3, 16, 2, 0)), 4, colRange(0, 8)},
		{"hubRow", build(60, 24, hub), 6, colRange(0, 12)},
		{"belowS", build(40, 16, randEnts(40, 16, 3, 10)), 8, colRange(0, 16)},
		{"belowSPartial", build(40, 16, randEnts(40, 16, 1, 12)), 8, []int{15, 2, 9, 4, 11, 0, 7, 13, 1, 6}},
		{"fewCand", build(20, 10, randEnts(20, 10, 2, 0)), 6, []int{4, 1, 8}},
		{"unordered", build(50, 40, randEnts(50, 40, 4, 0)), 5, []int{31, 2, 17, 39, 8, 0, 22, 13, 5, 27}},
	}
	for _, c := range cases {
		tr := newTournament(c.a, c.k)
		got := tr.node(c.cand)
		want := denseNode(c.a, c.cand, c.k)
		if !slices.Equal(got, want) {
			t.Errorf("%s: compacted node picks %v, dense panel %v", c.name, got, want)
		}
		checkPanelBits(t, c.name, tr, c.cand)
		for i, p := range tr.pos {
			if p != -1 {
				t.Fatalf("%s: row workspace not reset at row %d", c.name, i)
			}
		}
	}
}

// TestCompactedNodeSharedWorkspace runs many games through one tournament
// workspace, as the drivers do, and checks every one against the dense
// reference.
func TestCompactedNodeSharedWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randCSR(80, 120, 0.04, 12).ToCSC()
	k := 6
	tr := newTournament(a, k)
	for trial := 0; trial < 200; trial++ {
		cand := rng.Perm(a.Cols)[:1+rng.Intn(2*k+4)]
		got := tr.node(cand)
		want := denseNode(a, cand, k)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: compacted node picks %v, dense panel %v", trial, got, want)
		}
		checkPanelBits(t, "shared", tr, cand)
	}
}
