package qrtp

import (
	"fmt"
	"slices"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
	"sparselr/internal/sparse"
)

// Tree selects the reduction-tree shape of the sequential driver.
type Tree int

const (
	// Binary pairs candidate blocks in a balanced tree.
	Binary Tree = iota
	// Flat merges one candidate block at a time into the running winners.
	Flat
)

// Result of a tournament: the winning column indices (into the original
// matrix), ordered by decreasing pivot magnitude, and the k×k R₁₁ factor
// of the final QRCP on the winners. R11.At(0,0) realizes the bound
// |R⁽¹⁾(1,1)| ≤ ‖A‖₂ used for the ILUT_CRTP threshold (eq 23).
type Result struct {
	Winners []int
	R11     *mat.Dense
}

// tournament holds the workspace of one tournament over the columns of
// a: pos maps a row of a to its row in the current node's panel (−1 when
// absent), and rows lists the panel's rows. Both are reused by every node
// of the tournament, so no node allocates per-row workspace.
type tournament struct {
	a    *sparse.CSC
	k    int
	pos  []int
	rows []int
}

func newTournament(a *sparse.CSC, k int) *tournament {
	pos := make([]int, a.Rows)
	for i := range pos {
		pos[i] = -1
	}
	return &tournament{a: a, k: k, pos: pos}
}

// node runs the tournament game at one tree node: k steps of QRCP on the
// candidate columns and selection of the k winners.
func (t *tournament) node(cand []int) []int {
	if len(cand) <= t.k {
		return append([]int(nil), cand...)
	}
	perm := mat.QRCPPivots(t.panel(cand), t.k)
	win := make([]int, t.k)
	for i := range win {
		win[i] = cand[perm[i]]
	}
	return win
}

// panel gathers the candidate columns into a row-compacted dense panel
// and leaves its rows, ascending, in t.rows. The panel keeps the diagonal
// rows 0..s−1 (s = min(k, m, len(cand)), the rows the k pivot steps
// reflect onto) and every row holding a stored entry of a candidate. Any
// other row is zero across the panel; its reflector entries stay zero, so
// the Householder update skips it and it adds only +0 to every column
// norm. QRCP on the panel therefore pivots bitwise as on the dense m-row
// panel.
func (t *tournament) panel(cand []int) *mat.Dense {
	rows := t.rows[:0]
	for i := 0; i < min(t.k, t.a.Rows, len(cand)); i++ {
		t.pos[i] = 0
		rows = append(rows, i)
	}
	for _, j := range cand {
		ri, _ := t.a.ColView(j)
		for _, i := range ri {
			if t.pos[i] < 0 {
				t.pos[i] = 0
				rows = append(rows, i)
			}
		}
	}
	slices.Sort(rows)
	for p, i := range rows {
		t.pos[i] = p
	}
	panel := mat.NewDense(len(rows), len(cand))
	for p, j := range cand {
		ri, vals := t.a.ColView(j)
		for x, i := range ri {
			panel.Data[t.pos[i]*panel.Stride+p] = vals[x]
		}
	}
	for _, i := range rows {
		t.pos[i] = -1
	}
	t.rows = rows
	return panel
}

// finalR11 computes the R factor of a plain QR on the winner panel,
// trimmed to k×k.
func finalR11(a *sparse.CSC, winners []int, k int) *mat.Dense {
	if len(winners) == 0 {
		return mat.NewDense(0, 0)
	}
	panel := a.ExtractColsDense(winners)
	r := mat.ROnly(panel)
	kk := k
	if len(winners) < kk {
		kk = len(winners)
	}
	if r.Rows < kk {
		kk = r.Rows
	}
	return r.View(0, 0, kk, kk).Clone()
}

// SelectColumns runs a sequential tournament over all columns of a and
// returns the k winners together with R₁₁. Blocks of 2k columns feed the
// leaves. If a has at most k columns all of them win.
func SelectColumns(a *sparse.CSC, k int, tree Tree) Result {
	_, n := a.Dims()
	cand := make([]int, n)
	for j := range cand {
		cand[j] = j
	}
	return SelectColumnsAmong(a, cand, k, tree)
}

// SelectColumnsAmong runs the sequential tournament restricted to the
// candidate column ids cand (ascending or not). It backs the
// column-discarding enhancement of Cayrols (the paper's ref [2]):
// columns known to be negligible are excluded from the tournament,
// cutting its cost, while remaining part of the matrix. If cand has at
// most k entries they all win.
func SelectColumnsAmong(a *sparse.CSC, cand []int, k int, tree Tree) Result {
	if k <= 0 {
		panic(fmt.Sprintf("qrtp: non-positive k = %d", k))
	}
	if len(cand) <= k {
		winners := append([]int(nil), cand...)
		return Result{Winners: winners, R11: finalR11(a, winners, k)}
	}
	t := newTournament(a, k)
	blockW := 2 * k
	var champs [][]int
	for j := 0; j < len(cand); j += blockW {
		hi := j + blockW
		if hi > len(cand) {
			hi = len(cand)
		}
		champs = append(champs, t.node(cand[j:hi]))
	}
	var winners []int
	switch tree {
	case Binary:
		for len(champs) > 1 {
			var next [][]int
			for i := 0; i < len(champs); i += 2 {
				if i+1 == len(champs) {
					next = append(next, champs[i])
					continue
				}
				merged := append(append([]int(nil), champs[i]...), champs[i+1]...)
				next = append(next, t.node(merged))
			}
			champs = next
		}
		winners = champs[0]
	case Flat:
		winners = champs[0]
		for i := 1; i < len(champs); i++ {
			merged := append(append([]int(nil), winners...), champs[i]...)
			winners = t.node(merged)
		}
	default:
		panic("qrtp: unknown tree kind")
	}
	return Result{Winners: winners, R11: finalR11(a, winners, k)}
}

// Permutation expands a winner list into a full column permutation of an
// n-column matrix: winners first (in order), then the remaining columns
// in ascending order. perm[j] = original index of new column j.
func Permutation(winners []int, n int) []int {
	perm := make([]int, 0, n)
	taken := make([]bool, n)
	for _, w := range winners {
		if w < 0 || w >= n || taken[w] {
			panic("qrtp: invalid winner list")
		}
		taken[w] = true
		perm = append(perm, w)
	}
	for j := 0; j < n; j++ {
		if !taken[j] {
			perm = append(perm, j)
		}
	}
	return perm
}

// SelectRowsDense runs the sequential binary tournament on the rows of a
// dense matrix q and returns the k most linearly independent rows. It
// picks the same rows as LU_CRTP's row tournament on one rank; LU_CRTP
// itself calls SelectColumnsDistLabeled, and this entry point is kept for
// the perfbench probes.
func SelectRowsDense(q *mat.Dense, k int) []int {
	qt := sparse.FromDense(q.T(), 0).ToCSC()
	res := SelectColumns(qt, k, Binary)
	return res.Winners
}

// nodeFlops estimates the arithmetic cost of a tournament game on c
// candidate columns holding nnzPanel stored entries, following the sparse
// panel-QR cost model of the paper's §IV (O(k²·nnz) per tournament with
// blocks of 2k columns).
func nodeFlops(k, c, nnzPanel int) float64 {
	return 4*float64(k)*float64(nnzPanel) + 8*float64(k)*float64(k)*float64(c)
}

// SelectColumnsDist runs QR_TP over the dist runtime. Columns are block-
// cyclically pre-assigned: rank r owns the global column ids in myCols.
// Every rank returns the same Result. The matrix itself is shared-memory
// readable by all ranks (the dist layer models the communication the real
// implementation would perform: winner panels travel up a binary tree).
func SelectColumnsDist(c *dist.Comm, a *sparse.CSC, myCols []int, k int) Result {
	return SelectColumnsDistLabeled(c, a, myCols, k, "colQR_TP")
}

// SelectColumnsDistLabeled is SelectColumnsDist with an explicit kernel
// label so callers can separate the column tournament from the row
// tournament in the Fig 5 breakdown.
func SelectColumnsDistLabeled(c *dist.Comm, a *sparse.CSC, myCols []int, k int, label string) Result {
	const (
		tagWinners = 101
		tagPanel   = 102
	)
	p := c.Size()
	if c.Tracing() {
		c.Annotate(label + " tournament")
	}
	// Local round (communication-free): tournament over the owned
	// columns using leaves of 2k.
	t := newTournament(a, k)
	local := t.local(c, myCols, label+"/local")
	// Global binary reduction.
	winners := local
	for stride := 1; stride < p; stride <<= 1 {
		if c.Rank()%(2*stride) == 0 {
			partner := c.Rank() + stride
			if partner < p {
				theirs := c.Recv(partner, tagWinners).([]int)
				// Model the transfer of the partner's winner panel.
				_ = c.Recv(partner, tagPanel)
				merged := append(append([]int(nil), winners...), theirs...)
				nnzPanel := a.ColsNNZ(merged)
				c.Compute(nodeFlops(k, len(merged), nnzPanel), label+"/global")
				winners = t.node(merged)
			}
		} else if c.Rank()%(2*stride) == stride {
			partner := c.Rank() - stride
			c.Send(partner, tagWinners, winners, 8*len(winners))
			// The winner columns themselves (sparse payload: index+value
			// per entry).
			c.Send(partner, tagPanel, nil, 12*a.ColsNNZ(winners))
			break
		}
	}
	// Rank 0 finalizes R11 and broadcasts the result.
	var res Result
	if c.Rank() == 0 {
		nnzW := a.ColsNNZ(winners)
		c.Compute(nodeFlops(k, len(winners), nnzW), label+"/finalR")
		res = Result{Winners: winners, R11: finalR11(a, winners, k)}
	}
	kk := k
	out := c.Bcast(0, res, 8*kk+8*kk*kk)
	return out.(Result)
}

// local selects k champions among the owned columns, charging the
// leaf-round flops to the given kernel label.
func (t *tournament) local(c *dist.Comm, myCols []int, label string) []int {
	a, k := t.a, t.k
	if len(myCols) <= k {
		c.Compute(nodeFlops(k, len(myCols), a.ColsNNZ(myCols)), label)
		return append([]int(nil), myCols...)
	}
	blockW := 2 * k
	var champs [][]int
	for j := 0; j < len(myCols); j += blockW {
		hi := j + blockW
		if hi > len(myCols) {
			hi = len(myCols)
		}
		blk := myCols[j:hi]
		c.Compute(nodeFlops(k, len(blk), a.ColsNNZ(blk)), label)
		champs = append(champs, t.node(blk))
	}
	for len(champs) > 1 {
		var next [][]int
		for i := 0; i < len(champs); i += 2 {
			if i+1 == len(champs) {
				next = append(next, champs[i])
				continue
			}
			merged := append(append([]int(nil), champs[i]...), champs[i+1]...)
			c.Compute(nodeFlops(k, len(merged), a.ColsNNZ(merged)), label)
			next = append(next, t.node(merged))
		}
		champs = next
	}
	return champs[0]
}

// BlockCyclicColumns returns the column ids owned by the given rank under
// a block-cyclic distribution with the given block width.
func BlockCyclicColumns(n, p, rank, block int) []int {
	cols := make([]int, 0, n/p+block)
	for start := rank * block; start < n; start += p * block {
		for j := start; j < start+block && j < n; j++ {
			cols = append(cols, j)
		}
	}
	return cols
}
