package lucrtp

import (
	"errors"
	"fmt"
	"math"
	"time"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
	"sparselr/internal/ordering"
	"sparselr/internal/qrtp"
	"sparselr/internal/sparse"
)

// ThresholdMode selects how ILUT_CRTP drops Schur-complement entries.
type ThresholdMode int

const (
	// NoThreshold runs plain LU_CRTP.
	NoThreshold ThresholdMode = iota
	// AutoThreshold derives μ from eq (24): μ = τ|R⁽¹⁾(1,1)|/(u·√nnz(A)).
	AutoThreshold
	// FixedThreshold uses the caller-provided Mu.
	FixedThreshold
	// AggressiveThreshold sorts candidate entries below φ and drops the
	// smallest ones until the budget (22) would be violated (§VI-A).
	AggressiveThreshold
)

// ReorderMode selects the COLAMD preprocessing policy (§V and the Fig 1
// ablation).
type ReorderMode int

const (
	// ReorderFirst applies COLAMD + etree postorder once, before the
	// first iteration (the paper's default pipeline).
	ReorderFirst ReorderMode = iota
	// ReorderOff disables fill-reducing preprocessing.
	ReorderOff
	// ReorderEvery re-applies COLAMD to the Schur complement in every
	// iteration (the yellow-dotted ablation line of Fig 1 left).
	ReorderEvery
)

// Options configures a factorization.
type Options struct {
	BlockSize int     // k; defaults to 8
	Tol       float64 // τ in (1); required unless StopAtNumericalRank
	MaxRank   int     // cap on K; 0 means min(m, n)
	Threshold ThresholdMode
	Mu        float64 // threshold for FixedThreshold
	EstIters  int     // u in eq (24); 0 defaults to 10
	Phi       float64 // threshold control φ; 0 defaults to τ|R⁽¹⁾(1,1)|
	Reorder   ReorderMode
	// StopAtNumericalRank additionally stops when the panel QR diagonal
	// collapses (the Grigori termination; used for the SJSU suite runs
	// "stopped at the numerical rank").
	StopAtNumericalRank bool
	// StableL computes L₂₁ as Q₂₁Q₁₁⁻¹ instead of Ā₂₁Ā₁₁⁻¹ — the
	// alternative computation of §II-B3 that benefits stability but
	// introduces additional nonzeros.
	StableL bool
	// CaptureDropped accumulates the explicit threshold matrix T of
	// eq (10) in Result.Dropped. §III-B notes explicit formulations
	// "may produce high memory cost", so this is opt-in and intended
	// for analysis and verification, not production runs.
	CaptureDropped bool
	// DiscardTol > 0 enables the column-discarding enhancement the
	// paper's related work cites from Cayrols' thesis (ref [2]): columns
	// of A⁽ⁱ⁾ whose Euclidean norm falls below DiscardTol·τ·‖A‖_F/√n
	// are excluded from the column tournament (they cannot carry a
	// significant pivot while the error indicator is still above
	// τ‖A‖_F), reducing the tournament work. The columns stay in the
	// matrix and in the Schur updates, so the error indicator and the
	// factors are unaffected in exact arithmetic. DiscardTol = 1 is a
	// reasonable setting; larger values prune more aggressively.
	DiscardTol float64

	// CheckpointEvery > 0 makes the loop save each rank's state
	// into Checkpoint at the end of every CheckpointEvery-th iteration;
	// a complete snapshot already in Checkpoint resumes the run (the
	// COLAMD preamble is skipped — the restored Schur complement embeds
	// it) to a bit-identical result.
	CheckpointEvery int
	Checkpoint      *dist.CheckpointStore
}

func (o *Options) defaults() {
	if o.BlockSize <= 0 {
		o.BlockSize = 8
	}
	if o.EstIters <= 0 {
		o.EstIters = 10
	}
}

// ErrBreakdown reports the numerical failure mode analyzed in §III-A:
// the pivot block Ā₁₁ became singular (for ILUT_CRTP typically because
// thresholding destroyed rank, violating bound (20)).
var ErrBreakdown = errors.New("lucrtp: pivot block is singular (rank deficiency)")

// Result holds the factorization output and the per-iteration telemetry
// the experiments consume.
type Result struct {
	L, U    *sparse.CSR // truncated factors of P_r·A·P_c
	RowPerm []int       // P_r: row i of P_r·A·P_c is row RowPerm[i] of A
	ColPerm []int       // P_c: col j of A·P_c is col ColPerm[j] of A
	Rank    int         // K
	Iters   int
	NormA   float64 // ‖A‖_F

	ErrIndicator float64 // final ‖A⁽ⁱ⁺¹⁾‖_F (eq 9 / eq 26)
	Converged    bool    // ErrIndicator < τ‖A‖_F
	HitNumRank   bool    // stopped by the numerical-rank criterion

	// Per-iteration series (index 0 = after iteration 1).
	ErrHistory  []float64       // error indicator after each iteration
	FillHistory []float64       // density of A⁽ⁱ⁺¹⁾ (Fig 1 right)
	NNZHistory  []int           // nnz of A⁽ⁱ⁺¹⁾
	TimeHistory []time.Duration // cumulative wall time after each iteration

	// ILUT_CRTP accounting.
	Mu               float64 // threshold used (0 when inactive)
	Phi              float64 // threshold control bound
	DroppedNorm2     float64 // t = Σ‖T̃⁽ʲ⁾‖²_F (eq 22 running sum)
	DroppedNorm1     float64 // Σ‖T̃⁽ʲ⁾‖_F, the rigorous triangle bound on ‖T‖_F
	DroppedNNZ       int     // total entries dropped
	ControlTriggered bool    // line 10 of Alg 3 fired (undo + μ=0)
	R11First         float64 // |R⁽¹⁾(1,1)| (eq 23 realization)
	// Dropped is the explicit threshold matrix T of eq (10), in the
	// coordinates of P_r·A·P_c, populated when Options.CaptureDropped
	// is set: P_r·Ã·P_c = P_r·A·P_c + T.
	Dropped *sparse.CSR
	// DiscardedCols counts tournament candidates pruned by the
	// column-discarding enhancement, summed over iterations.
	DiscardedCols int
}

// NNZFactors returns nnz(L)+nnz(U), the quantity behind ratio_NNZ in
// Table II and Fig 1.
func (r *Result) NNZFactors() int { return r.L.NNZ() + r.U.NNZ() }

// entry buffers factor entries in original-row / global-column space
// until the final permutations are known.
type entry struct {
	i, j int
	v    float64
}

// Factor computes the fixed-precision truncated factorization of a with
// LU_CRTP (Options.Threshold == NoThreshold) or ILUT_CRTP. It is
// FactorDist on a one-rank Comm.
func Factor(a *sparse.CSR, opts Options) (*Result, error) {
	return FactorDist(dist.Solo(), a, opts)
}

// FactorDist runs LU_CRTP/ILUT_CRTP inside a dist.Run body: the column
// tournament, the row tournament, the triangular solve and the Schur
// complement are executed SPMD-style across the ranks with the data
// movement of §V (block-cyclic column distribution for A⁽ⁱ⁾, scatter of
// Ā₂₁, broadcast of Ā₁₁, allgather of the solve result). Every rank
// returns an identical *Result; per-rank virtual-time and per-kernel
// attributions accumulate in the Comm and are read from dist.Run's
// Result (Figs 4–5). On one rank it makes no copy that only the
// distribution needs, so Factor costs what a sequential loop would.
//
// Kernel labels (matching Fig 5): colQR_TP/{local,global,finalR},
// rowQR_TP/{local,global,finalR}, colamd, panelQR, rowPerm, triSolve,
// schur, threshold.
func FactorDist(c *dist.Comm, a *sparse.CSR, opts Options) (*Result, error) {
	opts.defaults()
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return nil, fmt.Errorf("lucrtp: empty matrix %d×%d", m, n)
	}
	k := opts.BlockSize
	p := c.Size()
	normA := a.FrobNorm()
	nnzA := a.NNZ()
	maxRank := opts.MaxRank
	if maxRank <= 0 || maxRank > min(m, n) {
		maxRank = min(m, n)
	}

	res := &Result{NormA: normA, RowPerm: identity(m), ColPerm: identity(n)}
	acur := a

	// Resume from the newest complete checkpoint cut, if one exists. The
	// COLAMD preamble is skipped on resume: the restored Schur complement
	// and permutations already embed the reordering.
	startIter := 0
	resumed := false
	var lEnt, uEnt, tEnt []entry
	z := 0
	mu, phi, t2 := 0.0, 0.0, 0.0
	if opts.Checkpoint != nil {
		if it, states, ok := opts.Checkpoint.Latest(p); ok {
			s := states[c.Rank()].(*luSnapshot)
			startIter = it
			resumed = true
			acur = s.acur.Clone()
			lEnt = append([]entry(nil), s.lEnt...)
			uEnt = append([]entry(nil), s.uEnt...)
			tEnt = append([]entry(nil), s.tEnt...)
			z = s.z
			mu, phi, t2 = s.mu, s.phi, s.t2
			*res = s.res.snapshot()
		}
	}
	if !resumed && opts.Reorder != ReorderOff {
		// COLAMD preprocessing (§V) before iteration 1.
		perm := fillReducingOrder(c, a)
		res.ColPerm = perm
		acur = a.PermuteCols(perm)
	}
	rowOrder := res.RowPerm // alias; updated in place
	colOrder := res.ColPerm
	thresholdOn := opts.Threshold != NoThreshold
	start := time.Now()

	for iter := startIter + 1; ; iter++ {
		if c.Tracing() {
			c.Annotate(fmt.Sprintf("LU_CRTP iter %d", iter))
		}
		mcur, ncur := acur.Dims()
		keff := min(k, min(mcur, ncur), maxRank-z)
		if keff <= 0 {
			break
		}
		if opts.Reorder == ReorderEvery && iter > 1 {
			perm := fillReducingOrder(c, acur)
			acur = acur.PermuteCols(perm)
			applyTail(colOrder, z, perm)
		}
		// --- Line 5 of Alg 2: column QR_TP (distributed tournament) ---
		csc := acur.ToCSC()
		myCols := qrtp.BlockCyclicColumns(ncur, p, c.Rank(), keff)
		if opts.DiscardTol > 0 {
			// Column discarding (ref [2]): each rank prunes negligible
			// candidates from its own block before the tournament, as
			// long as at least keff candidates survive overall.
			limit2 := opts.DiscardTol * opts.Tol * normA / math.Sqrt(float64(n))
			limit2 *= limit2
			norms2 := acur.ColNorms2()
			total := 0
			for _, n2 := range norms2 {
				if n2 > limit2 {
					total++
				}
			}
			if total >= keff {
				kept := myCols[:0]
				for _, j := range myCols {
					if norms2[j] > limit2 {
						kept = append(kept, j)
					}
				}
				myCols = kept
				res.DiscardedCols += ncur - total
			}
		}
		colRes := qrtp.SelectColumnsDist(c, csc, myCols, keff)
		lcp := qrtp.Permutation(colRes.Winners, ncur)
		// Column permutations are implicit during tournament pivoting
		// (Fig 5 caption) — no kernel charge, and no permuted copy: the
		// blocks are read through inverse(lcp) below.
		applyTail(colOrder, z, lcp)

		// --- Line 6: panel QR on the winning columns (owner computes,
		// then the orthogonal panel is scattered, §V) ---
		panel := csc.ExtractColsDense(colRes.Winners)
		if c.Rank() == 0 {
			panelNNZ := 0
			for _, v := range panel.Data {
				if v != 0 {
					panelNNZ++
				}
			}
			c.Compute(4*float64(keff)*float64(panelNNZ)+2*float64(mcur)*float64(keff)*float64(keff), "panelQR")
		}
		qk, rPanel := mat.QR(panel)
		c.Bcast(0, nil, 8*mcur*keff) // scatter of Q_k
		c.Elapse(0, "panelQR")       // ensure the kernel appears on every rank

		if iter == 1 {
			res.R11First = math.Abs(rPanel.At(0, 0))
			if thresholdOn {
				switch opts.Threshold {
				case FixedThreshold:
					mu = opts.Mu
				default:
					// eq (24): μ = τ|R⁽¹⁾(1,1)| / (u·√nnz(A)).
					mu = opts.Tol * res.R11First / (float64(opts.EstIters) * math.Sqrt(float64(nnzA)))
				}
				phi = opts.Phi
				if phi <= 0 {
					phi = opts.Tol * res.R11First
				}
				res.Mu, res.Phi = mu, phi
			}
		}
		// Numerical-rank guard on the panel diagonal.
		rankTol := 1e-13 * math.Max(res.R11First, math.Abs(rPanel.At(0, 0)))
		sig := 0
		for t := 0; t < keff; t++ {
			if math.Abs(rPanel.At(t, t)) > rankTol {
				sig++
			} else {
				break
			}
		}
		lastBlock := false
		if sig < keff {
			if sig == 0 {
				res.HitNumRank = true
				break
			}
			if thresholdOn && !opts.StopAtNumericalRank {
				// ILUT_CRTP rank deficiency: bound (20) violated.
				return res, fmt.Errorf("%w: panel diagonal collapsed at iteration %d (|R(k,k)| ≤ %.3g)", ErrBreakdown, iter, rankTol)
			}
			// LU_CRTP (or a run stopping at the numerical rank) keeps
			// the significant part of the block and finishes.
			keff = sig
			qk = qk.View(0, 0, mcur, keff).Clone()
			lastBlock = true
			res.HitNumRank = true
		}

		// --- Line 7: row QR_TP on Q_kᵀ (distributed tournament over
		// rows) ---
		qt := sparse.FromDense(qk.T(), 0).ToCSC()
		myRows := qrtp.BlockCyclicColumns(mcur, p, c.Rank(), keff)
		rowRes := qrtp.SelectColumnsDistLabeled(c, qt, myRows, keff, "rowQR_TP")
		lrp := qrtp.Permutation(rowRes.Winners, mcur)
		// Local row permutations of A⁽ⁱ⁾ after row QR_TP are one of the
		// expensive kernels when fill-in is large (Fig 5): each rank
		// permutes its share of the nonzeros. The model keeps charging
		// them; here the blocks are read through lrp instead.
		c.Compute(4*float64(acur.NNZ())/float64(p), "rowPerm")
		qk = qk.PermuteRows(lrp)
		applyTail(rowOrder, z, lrp)

		// --- Line 8: partition Ā = P_r·A⁽ⁱ⁾·P_c, read in place. Each
		// rank owns rows [lo, hi) of the trailing block rows Ā₂₁ and
		// Ā₂₂. Non-winners keep their order (qrtp.Permutation), so only
		// the winners left over by the rank guard need a sort ---
		ab := sparse.PermutedView{A: acur, Rows: lrp, ColPos: inverse(lcp), Sorted: len(colRes.Winners)}
		lo, hi := dist.RowShare(mcur-keff, p, c.Rank())
		a11 := ab.DenseBlock(0, keff, 0, keff)
		a12 := ab.Block(0, keff, keff, ncur)

		// --- Line 10: X = Ā₂₁Ā₁₁⁻¹ (or the stable Q-based form): Ā₂₁
		// scattered by rows, Ā₁₁ broadcast, result allgathered (§V) ---
		c.Bcast(0, nil, 8*keff*keff) // broadcast of Ā₁₁
		var myA21, pivot *mat.Dense
		if opts.StableL {
			myA21 = qk.View(keff+lo, 0, hi-lo, keff).Clone()
			pivot = qk.View(0, 0, keff, keff).Clone()
		} else {
			myA21 = ab.DenseBlock(keff+lo, keff+hi, 0, keff)
			pivot = a11
		}
		myX, err := mat.SolveRight(myA21, pivot)
		if err != nil {
			// All ranks hit the same singular pivot deterministically.
			return res, fmt.Errorf("%w: iteration %d: %v", ErrBreakdown, iter, err)
		}
		c.Compute(2*float64(hi-lo)*float64(keff)*float64(keff), "triSolve")
		myXsp := sparse.FromDense(myX, 0)
		xsp := gatherRows(c, myXsp, mcur-keff, keff)

		// --- Line 11: append L_k = [I; X] and U_k = [Ā₁₁ Ā₁₂]
		// (replicated bookkeeping) ---
		for tIdx := 0; tIdx < keff; tIdx++ {
			lEnt = append(lEnt, entry{rowOrder[z+tIdx], z + tIdx, 1})
			for cc := 0; cc < keff; cc++ {
				if v := a11.At(tIdx, cc); v != 0 {
					uEnt = append(uEnt, entry{z + tIdx, colOrder[z+cc], v})
				}
			}
			cols, vals := a12.RowView(tIdx)
			for kk, cc := range cols {
				uEnt = append(uEnt, entry{z + tIdx, colOrder[z+keff+cc], vals[kk]})
			}
		}
		for r := 0; r < xsp.Rows; r++ {
			cols, vals := xsp.RowView(r)
			for kk, cc := range cols {
				lEnt = append(lEnt, entry{rowOrder[z+keff+r], z + cc, vals[kk]})
			}
		}

		// --- Line 12: Schur complement Ā₂₂ − X·Ā₁₂ in one fused pass.
		// Each rank computes its row share, then an Allgather
		// distributes S (§V) ---
		myS, nnz22 := ab.Schur(keff+lo, keff+hi, keff, myXsp, a12)
		c.Compute(sparse.SpGEMMFlops(myXsp, a12)+2*float64(nnz22), "schur")
		s := gatherRows(c, myS, mcur-keff, ncur-keff)

		e := s.FrobNorm()
		res.ErrHistory = append(res.ErrHistory, e)
		res.FillHistory = append(res.FillHistory, s.Density())
		res.NNZHistory = append(res.NNZHistory, s.NNZ())
		res.TimeHistory = append(res.TimeHistory, time.Since(start))
		res.Iters = iter
		z += keff
		res.Rank = z

		// --- Line 13 / Alg 3 line 7: termination ---
		if e < opts.Tol*normA {
			res.Converged = true
			res.ErrIndicator = e
			break
		}
		if lastBlock || z >= maxRank || s.Rows == 0 || s.Cols == 0 {
			res.ErrIndicator = e
			break
		}

		// --- Alg 3 lines 8–10: thresholding with control ---
		if thresholdOn && mu > 0 {
			c.Compute(2*float64(s.NNZ())/float64(p), "threshold")
			var kept, dropped *sparse.CSR
			if opts.Threshold == AggressiveThreshold {
				budget := phi*phi - t2
				if budget < 0 {
					budget = 0
				}
				kept, dropped = s.ThresholdSmallest(phi, budget)
			} else {
				kept, dropped = s.Threshold(mu)
			}
			dn2 := dropped.FrobNorm2()
			if math.Sqrt(t2+dn2) >= phi {
				// Line 10: undo and disable thresholding.
				mu = 0
				res.Mu = 0
				res.ControlTriggered = true
			} else {
				t2 += dn2
				res.DroppedNorm2 = t2
				res.DroppedNorm1 += math.Sqrt(dn2)
				res.DroppedNNZ += dropped.NNZ()
				if opts.CaptureDropped {
					// Ã = A + T: removing an entry v contributes −v to
					// the perturbation. Positions are recorded by
					// original ids; the tail permutations of later
					// iterations are resolved at assembly time.
					for r := 0; r < dropped.Rows; r++ {
						cols, vals := dropped.RowView(r)
						for kk, cc := range cols {
							tEnt = append(tEnt, entry{rowOrder[z+r], colOrder[z+cc], -vals[kk]})
						}
					}
				}
				s = kept
			}
		}
		acur = s
		res.ErrIndicator = e
		if opts.Checkpoint != nil && opts.CheckpointEvery > 0 && iter%opts.CheckpointEvery == 0 {
			opts.Checkpoint.Save(iter, c.Rank(), &luSnapshot{
				acur: acur.Clone(),
				lEnt: append([]entry(nil), lEnt...),
				uEnt: append([]entry(nil), uEnt...),
				tEnt: append([]entry(nil), tEnt...),
				z:    z,
				mu:   mu,
				phi:  phi,
				t2:   t2,
				res:  res.snapshot(),
			})
		}
	}
	if len(res.ErrHistory) > 0 {
		res.ErrIndicator = res.ErrHistory[len(res.ErrHistory)-1]
	}
	rowPos, colPos := inverse(rowOrder), inverse(colOrder)
	res.L, res.U = assembleFactors(lEnt, uEnt, rowPos, colPos, m, n, res.Rank)
	if opts.CaptureDropped {
		tb := sparse.NewBuilder(m, n)
		for _, e := range tEnt {
			tb.Add(rowPos[e.i], colPos[e.j], e.v)
		}
		res.Dropped = tb.ToCSR()
	}
	return res, nil
}

// fillReducingOrder computes the COLAMD + etree-postorder column
// permutation of a. COLAMD is "a local, intrinsically sequential
// reordering heuristic" (§V): rank 0 computes it and broadcasts it.
func fillReducingOrder(c *dist.Comm, a *sparse.CSR) []int {
	var perm []int
	if c.Rank() == 0 {
		perm = ordering.FillReducingOrder(a)
		c.Compute(float64(8*a.NNZ()), "colamd")
	}
	// Clone the broadcast slice: ranks mutate their permutation vectors
	// in place, and message payloads share backing arrays.
	return append([]int(nil), c.Bcast(0, perm, 8*a.Cols).([]int)...)
}

// gatherRows allgathers the ranks' row blocks of a rows×cols matrix and
// stacks them in rank order. A lone block is returned as is.
func gatherRows(c *dist.Comm, mine *sparse.CSR, rows, cols int) *sparse.CSR {
	parts := c.Allgather(mine, 12*mine.NNZ())
	if len(parts) == 1 {
		return mine
	}
	if rows == 0 {
		return sparse.NewCSR(0, cols)
	}
	blocks := make([]*sparse.CSR, len(parts))
	for r, part := range parts {
		blocks[r] = part.(*sparse.CSR)
	}
	return sparse.VStackCSR(blocks...)
}

// luSnapshot is one rank's LU_CRTP/ILUT_CRTP loop state at an iteration
// boundary. The loop is fully replicated, so every rank snapshots the
// same values; all fields are deep copies.
type luSnapshot struct {
	acur             *sparse.CSR
	lEnt, uEnt, tEnt []entry
	z                int
	mu, phi, t2      float64
	res              Result
}

// snapshot deep-copies the loop-carried fields of r.
func (r *Result) snapshot() Result {
	s := *r
	s.RowPerm = append([]int(nil), r.RowPerm...)
	s.ColPerm = append([]int(nil), r.ColPerm...)
	s.ErrHistory = append([]float64(nil), r.ErrHistory...)
	s.FillHistory = append([]float64(nil), r.FillHistory...)
	s.NNZHistory = append([]int(nil), r.NNZHistory...)
	s.TimeHistory = append([]time.Duration(nil), r.TimeHistory...)
	return s
}

// ThresholdedError evaluates eq (10) exactly for a run with
// CaptureDropped: ‖(P_r·A·P_c + T) − L̃·Ũ‖_F, which must equal the error
// estimator ‖Ã⁽ⁱ⁺¹⁾‖_F up to roundoff — the ILUT factorization is an
// exact LU_CRTP of the perturbed matrix Ã.
func ThresholdedError(a *sparse.CSR, res *Result) float64 {
	if res.Dropped == nil {
		panic("lucrtp: ThresholdedError requires Options.CaptureDropped")
	}
	perm := a.PermuteRows(res.RowPerm).PermuteCols(res.ColPerm)
	tilde := sparse.Add(1, perm, 1, res.Dropped)
	lu := sparse.SpGEMM(res.L, res.U)
	return sparse.Add(1, tilde, -1, lu).FrobNorm()
}

// assembleFactors maps the buffered entries from original coordinates to
// the final permuted positions and builds CSR factors.
func assembleFactors(lEnt, uEnt []entry, rowPos, colPos []int, m, n, rank int) (l, u *sparse.CSR) {
	lb := sparse.NewBuilder(m, rank)
	for _, e := range lEnt {
		lb.Add(rowPos[e.i], e.j, e.v)
	}
	ub := sparse.NewBuilder(rank, n)
	for _, e := range uEnt {
		ub.Add(e.i, colPos[e.j], e.v)
	}
	return lb.ToCSR(), ub.ToCSR()
}

// inverse returns the inverse of the permutation order: the position of
// each original id.
func inverse(order []int) []int {
	pos := make([]int, len(order))
	for p, orig := range order {
		pos[orig] = p
	}
	return pos
}

// applyTail permutes the tail (positions ≥ z) of order by the local
// permutation lperm: newOrder[z+j] = order[z+lperm[j]].
func applyTail(order []int, z int, lperm []int) {
	tail := make([]int, len(lperm))
	for j, p := range lperm {
		tail[j] = order[z+p]
	}
	copy(order[z:], tail)
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// TrueError computes ‖P_r·A·P_c − L·U‖_F exactly (eq 5 / eq 25), the
// quantity the error indicator estimates.
func TrueError(a *sparse.CSR, res *Result) float64 {
	perm := a.PermuteRows(res.RowPerm).PermuteCols(res.ColPerm)
	lu := sparse.SpGEMM(res.L, res.U)
	return sparse.Add(1, perm, -1, lu).FrobNorm()
}

// MaxFill returns the maximum per-iteration density of the Schur
// complements, the fill statistic of Fig 1 (left, green lines).
func (r *Result) MaxFill() float64 {
	var m float64
	for _, f := range r.FillHistory {
		if f > m {
			m = f
		}
	}
	return m
}
