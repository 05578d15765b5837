package main

import (
	"math/rand"
	"sort"
	"time"

	"sparselr/internal/core"
	"sparselr/internal/cur"
	"sparselr/internal/mat"
	"sparselr/internal/ordering"
	"sparselr/internal/qrtp"
	"sparselr/internal/sketch"
	"sparselr/internal/sparse"
)

// probeSet accumulates layer probes: seconds per call summed over the
// workload's shapes, with the computed work of each call.
type probeSet map[string]*probe

type probe struct {
	seconds   float64
	flops     float64 // computed from the shape, not counted
	bytes     float64 // computed minimum traffic, not measured
	calls     int
	hasCounts bool
}

// timeCall runs fn until it has run 3 times or for 0.2 s, whichever
// comes first (at least once), and returns the median wall time.
func timeCall(fn func()) float64 {
	var ts []float64
	begin := time.Now()
	for len(ts) < 3 && (len(ts) == 0 || time.Since(begin) < 200*time.Millisecond) {
		t0 := time.Now()
		fn()
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts)
}

func (ps probeSet) add(name string, seconds float64) *probe {
	p := ps[name]
	if p == nil {
		p = &probe{}
		ps[name] = p
	}
	p.seconds += seconds
	p.calls++
	return p
}

// addKernel records a probe with its computed flop and byte counts.
func (ps probeSet) addKernel(name string, seconds, flops, bytes float64) {
	p := ps.add(name, seconds)
	p.flops += flops
	p.bytes += bytes
	p.hasCounts = true
}

// report emits <layer>.<probe>_s and, for kernel probes, the computed
// <layer>.<probe>.gflop and <layer>.<probe>.mb.
func (ps probeSet) report(rep *report) {
	names := make([]string, 0, len(ps))
	for n := range ps {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := ps[n]
		rep.set(n+"_s", "s", p.seconds, p.calls)
		if p.hasCounts {
			rep.set(n+".gflop", "GFLOP", p.flops/1e9, p.calls)
			rep.set(n+".mb", "MB", p.bytes/1e6, p.calls)
		}
	}
}

// randomPanel returns a seeded r×c Gaussian matrix.
func randomPanel(r, c int, seed int64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	d := mat.NewDense(r, c)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return d
}

// kernelProbes times the dense and sparse kernels of the randomized
// methods at the shapes of one solve: its m×n input, its final rank K
// and a panel of k = 16 columns.
func kernelProbes(ps probeSet, a *sparse.CSR, ap *core.Approximation, seed int64) {
	m, n := a.Dims()
	nnz := float64(a.NNZ())
	k := blockSize
	K := max(ap.Rank, 1)
	fm, fn, fk, fK := float64(m), float64(n), float64(k), float64(K)
	panel := randomPanel(m, k, seed)
	q := randomPanel(m, K, seed+1)
	b := randomPanel(K, k, seed+2)

	blk := sketch.New(sketch.Gaussian, n, seed, 0).Next(k)
	dst := mat.NewDense(m, k)
	ps.addKernel("sketch.apply", timeCall(func() { blk.MulCSRInto(dst, a) }),
		2*nnz*fk, 12*nnz+8*(fm+1)+8*fn*fk+8*fm*fk)
	ps.addKernel("sparse.spmmt", timeCall(func() { a.MulTDense(panel) }),
		2*nnz*fk, 12*nnz+8*(fm+1)+8*fm*fk+8*fn*fk)
	ps.addKernel("mat.orth", timeCall(func() { mat.Orth(panel) }),
		4*fm*fk*fk, 16*fm*fk)
	ps.addKernel("mat.gemm", timeCall(func() { mat.Mul(q, b) }),
		2*fm*fK*fk, 8*(fm*fK+fK*fk+fm*fk))
	ps.addKernel("mat.mult", timeCall(func() { mat.MulT(q, panel) }),
		2*fm*fK*fk, 8*(fm*fK+fm*fk+fK*fk))

	// QRCP at CUR's sketch shape: the l×n row-space sketch with l =
	// K+8 for a CUR solve, and CUR's first trial (l = k+8) otherwise.
	l := k + 8
	if ap.CUR != nil {
		l = K + 8
	}
	l = min(l, m, n)
	y := sketch.New(sketch.Gaussian, m, seed+3, 0).Next(l).MulCSR(a.Transpose()).T()
	fl := float64(l)
	ps.addKernel("mat.qrcp", timeCall(func() { mat.QRCPSelect(y) }),
		4*fn*fl*fl, 16*fn*fl)

	// The streamed residual ‖A − L·R‖_F at the solve's own factors.
	var res func()
	switch {
	case ap.CUR != nil:
		res = func() { cur.TrueError(a, ap.CUR) }
	case ap.QB != nil:
		res = func() { a.ResidualFrobNorm(ap.QB.Q, ap.QB.B) }
	case ap.LU != nil:
		pa := a.PermuteRows(ap.LU.RowPerm).PermuteCols(ap.LU.ColPerm)
		l, u := ap.LU.L.ToDense(), ap.LU.U.ToDense()
		res = func() { pa.ResidualFrobNorm(l, u) }
	default:
		return
	}
	ps.addKernel("sparse.residual", timeCall(res),
		2*fm*fn*fK, 12*nnz+8*(fm*fK+fK*fn))
}

// luProbes replays LU_CRTP's first iteration on a with the same public
// calls the solver makes, timing the COLAMD ordering, the column
// tournament, the column permutation and the Schur update.
func luProbes(ps probeSet, a *sparse.CSR) {
	m, n := a.Dims()
	k := min(blockSize, m, n)
	var perm []int
	ps.add("ordering.colamd", timeCall(func() { perm = ordering.FillReducingOrder(a) }))
	ac := a.PermuteCols(perm)
	csc := ac.ToCSC()
	var win qrtp.Result
	ps.add("qrtp.tournament", timeCall(func() { win = qrtp.SelectColumns(csc, k, qrtp.Binary) }))
	lcp := qrtp.Permutation(win.Winners, n)
	var acp *sparse.CSR
	ps.add("sparse.permute", timeCall(func() { acp = ac.PermuteCols(lcp) }))
	ac = acp

	cols := make([]int, k)
	for i := range cols {
		cols[i] = i
	}
	qk, _ := mat.QR(ac.ExtractColsDense(cols))
	ac = ac.PermuteRows(qrtp.Permutation(qrtp.SelectRowsDense(qk, k), m))
	a11 := ac.ExtractBlock(0, k, 0, k).ToDense()
	a12 := ac.ExtractBlock(0, k, k, n)
	a21 := ac.ExtractBlock(k, m, 0, k)
	a22 := ac.ExtractBlock(k, m, k, n)
	x, err := mat.SolveRight(a21.ToDense(), a11)
	if err != nil {
		logf("schur probe skipped: %v", err)
		return
	}
	xsp := sparse.FromDense(x, 0)
	ps.add("sparse.schur", timeCall(func() { sparse.Add(1, a22, -1, sparse.SpGEMM(xsp, a12)) }))
}
