package randqb

import (
	"fmt"
	"math"
	"time"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
	"sparselr/internal/sketch"
	"sparselr/internal/sparse"
)

// FactorDist runs RandQB_EI inside a dist.Run body in a genuinely
// distributed layout, mirroring §V's Elemental setup: A and the growing
// basis Q_K are 1-D row-distributed (each rank stores only its m/P rows —
// the El::Multiply layout), B_K is replicated (K×n is the small side),
// orthogonalization is a real communication-avoiding TSQR whose global Q
// is never materialized (El::qr::ExplicitTS), and the Q_KᵀA / AᵀQ_k
// products are partial-sum reductions across ranks.
//
// The Gaussian sketches come from the shared seed, so the distributed
// run retraces the sequential recurrence up to floating-point
// reassociation of the partial sums.
//
// Kernel labels (Fig 6): SpMM (sparse A times dense blocks), orth/TSQR,
// GEMM (projection corrections), Bupdate (B_k = Q_kᵀA plus its reduce).
func FactorDist(c *dist.Comm, a *sparse.CSR, opts Options) (*Result, error) {
	opts.defaults()
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return nil, fmt.Errorf("randqb: empty matrix %d×%d", m, n)
	}
	k := opts.BlockSize
	p := c.Size()
	maxRank := opts.MaxRank
	if maxRank <= 0 || maxRank > min(m, n) {
		maxRank = min(m, n)
	}
	sk := sketch.New(opts.Sketch, n, opts.Seed, opts.SketchNNZ)
	normA := a.FrobNorm()
	res := &Result{NormA: normA}
	if opts.Tol > 0 && opts.Tol < IndicatorBreakdownTol {
		res.IndicatorUnreliable = true
	}
	// Row distribution of A and Q_K.
	lo, hi := dist.RowShare(m, p, c.Rank())
	aLoc := a.ExtractBlock(lo, hi, 0, n)
	nnzLoc := float64(aLoc.NNZ())
	nlo, nhi := dist.RowShare(n, p, c.Rank()) // inner-dimension split for B_K·X

	e := normA * normA
	qKLoc := mat.NewDense(hi-lo, 0)
	bK := mat.NewDense(0, n)
	start := time.Now()

	// Resume from the newest complete checkpoint cut, if one exists. The
	// sketch stream is fast-forwarded by the recorded draw count so the
	// remaining sketches are the ones the uninterrupted run would have
	// drawn.
	startIter := 0
	if opts.Checkpoint != nil {
		if it, states, ok := opts.Checkpoint.Latest(p); ok {
			s := states[c.Rank()].(*qbSnapshot)
			startIter = it
			e = s.e
			qKLoc = s.qKLoc.Clone()
			bK = s.bK.Clone()
			res.Iters = it
			res.ErrIndicator = s.errIndicator
			res.ErrHistory = append([]float64(nil), s.errHistory...)
			res.TimeHistory = append([]time.Duration(nil), s.timeHistory...)
			res.OrthLossFirst = s.orthLossFirst
			res.OrthLossLast = s.orthLossLast
			sk.FastForward(s.draws)
		}
	}

	// sumReduce adds the per-rank partials of a replicated product:
	// gather at the root, sum, broadcast. The result is safe to mutate.
	sumReduce := func(partial *mat.Dense, kernel string) *mat.Dense {
		if p == 1 {
			return partial
		}
		bytes := 8 * partial.Rows * partial.Cols
		parts := c.Gather(0, partial, bytes)
		var sum *mat.Dense
		if c.Rank() == 0 {
			sum = parts[0].(*mat.Dense).Clone()
			for r := 1; r < p; r++ {
				sum.Add(parts[r].(*mat.Dense))
			}
			c.Compute(float64(p-1)*float64(partial.Rows)*float64(partial.Cols), kernel)
		}
		return c.Bcast(0, sum, bytes).(*mat.Dense).Clone()
	}
	// innerGEMM computes rep·x for the replicated rep (K×n) and x (n×w)
	// by splitting the inner dimension across ranks and reducing.
	innerGEMM := func(rep, x *mat.Dense) *mat.Dense {
		if rep.Rows == 0 {
			return mat.NewDense(0, x.Cols)
		}
		if p == 1 {
			c.Compute(2*float64(rep.Rows)*float64(n)*float64(x.Cols), "GEMM")
			return mat.Mul(rep, x)
		}
		c.Compute(2*float64(rep.Rows)*float64(nhi-nlo)*float64(x.Cols), "GEMM")
		partial := mat.Mul(
			rep.View(0, nlo, rep.Rows, nhi-nlo).Clone(),
			x.View(nlo, 0, nhi-nlo, x.Cols).Clone(),
		)
		return sumReduce(partial, "GEMM")
	}
	// innerSketch is innerGEMM against the current sketch block: each rank
	// applies its inner-dimension slice of Ω through the structure-aware
	// kernel and the partials reduce. For the Gaussian kind both the values
	// and the virtual-clock charges match innerGEMM on the dense Ω exactly.
	innerSketch := func(rep *mat.Dense, blk sketch.Block) *mat.Dense {
		_, w := blk.Dims()
		if rep.Rows == 0 {
			return mat.NewDense(0, w)
		}
		if p == 1 {
			c.Compute(blk.CostDense(rep.Rows, 0, n), "GEMM")
			out := mat.NewDense(rep.Rows, w)
			blk.MulDenseInto(out, rep)
			return out
		}
		c.Compute(blk.CostDense(rep.Rows, nlo, nhi), "GEMM")
		partial := mat.NewDense(rep.Rows, w)
		blk.MulDenseRangeInto(partial, rep, nlo, nhi)
		return sumReduce(partial, "GEMM")
	}
	// localCorrect computes yLoc -= qKLoc·s for a replicated small s.
	localCorrect := func(yLoc, s *mat.Dense) {
		if qKLoc.Cols == 0 {
			return
		}
		c.Compute(2*float64(hi-lo)*float64(qKLoc.Cols)*float64(s.Cols), "GEMM")
		mat.MulSub(yLoc, qKLoc, s)
	}

	for iter := startIter + 1; ; iter++ {
		if c.Tracing() {
			c.Annotate(fmt.Sprintf("RandQB iter %d", iter))
		}
		kNow := bK.Rows
		if kNow >= maxRank {
			break
		}
		kEff := min(k, maxRank-kNow)
		blk := sk.Next(kEff)
		// Y = A·Ω − Q_K(B_K·Ω), all row-local.
		c.Compute(blk.CostCSR(nnzLoc, hi-lo), "SpMM")
		yLoc := blk.MulCSR(aLoc)
		if kNow > 0 {
			localCorrect(yLoc, innerSketch(bK, blk))
		}
		qkLoc := distTSQRLocal(c, yLoc, m, "orth/TSQR")
		for r := 0; r < opts.Power; r++ {
			// Q̂ = orth(AᵀQ_k − B_Kᵀ(Q_KᵀQ_k)).
			c.Compute(2*nnzLoc*float64(qkLoc.Cols), "SpMM")
			qh := sumReduce(aLoc.MulTDense(qkLoc), "SpMM")
			if kNow > 0 {
				c.Compute(2*float64(hi-lo)*float64(kNow)*float64(qkLoc.Cols), "GEMM")
				proj := sumReduce(mat.MulT(qKLoc, qkLoc), "GEMM")
				c.Compute(2*float64(n)/float64(p)*float64(kNow)*float64(proj.Cols), "GEMM")
				mat.MulSub(qh, bK.T(), proj)
			}
			qhat := distTSQR(c, qh, "orth/TSQR")
			// Q_k = orth(A·Q̂ − Q_K(B_K·Q̂)).
			c.Compute(2*nnzLoc*float64(qhat.Cols), "SpMM")
			y2Loc := aLoc.MulDense(qhat)
			if kNow > 0 {
				localCorrect(y2Loc, innerGEMM(bK, qhat))
			}
			qkLoc = distTSQRLocal(c, y2Loc, m, "orth/TSQR")
		}
		// Re-orthogonalization against Q_K.
		if kNow > 0 {
			c.Compute(2*float64(hi-lo)*float64(kNow)*float64(qkLoc.Cols), "GEMM")
			proj := sumReduce(mat.MulT(qKLoc, qkLoc), "GEMM")
			localCorrect(qkLoc, proj)
			qkLoc = distTSQRLocal(c, qkLoc, m, "orth/TSQR")
		}
		if qkLoc.Cols == 0 {
			break
		}
		// B_k = Q_kᵀ·A: per-rank contribution Q_k,locᵀ·A_loc reduced.
		c.Compute(2*nnzLoc*float64(qkLoc.Cols), "Bupdate")
		bk := sumReduce(aLoc.MulTDense(qkLoc), "Bupdate").T()
		qKLoc = mat.HStack(qKLoc, qkLoc)
		bK = mat.VStack(bK, bk)
		e -= bk.FrobNorm2()
		if e < 0 {
			e = 0
		}
		ind := math.Sqrt(e)
		res.ErrHistory = append(res.ErrHistory, ind)
		res.TimeHistory = append(res.TimeHistory, time.Since(start))
		res.Iters = iter
		res.ErrIndicator = ind
		if opts.TrackOrthLoss {
			gram := sumReduce(mat.MulT(qKLoc, qKLoc), "GEMM")
			gram.Sub(mat.Identity(qKLoc.Cols))
			loss := gram.InfNorm()
			if iter == 1 {
				res.OrthLossFirst = loss
			}
			res.OrthLossLast = loss
		}
		if opts.Checkpoint != nil && opts.CheckpointEvery > 0 && iter%opts.CheckpointEvery == 0 {
			opts.Checkpoint.Save(iter, c.Rank(), &qbSnapshot{
				draws:         sk.Draws(),
				e:             e,
				qKLoc:         qKLoc.Clone(),
				bK:            bK.Clone(),
				errIndicator:  res.ErrIndicator,
				errHistory:    append([]float64(nil), res.ErrHistory...),
				timeHistory:   append([]time.Duration(nil), res.TimeHistory...),
				orthLossFirst: res.OrthLossFirst,
				orthLossLast:  res.OrthLossLast,
			})
		}
		if ind < opts.Tol*normA {
			res.Converged = true
			break
		}
	}
	// Assemble the full Q for the caller (the library result is a plain
	// factorization; only the run itself is distributed).
	var q *mat.Dense
	if p == 1 {
		q = qKLoc
	} else {
		parts := c.Allgather(qKLoc, 8*(hi-lo)*qKLoc.Cols)
		q = parts[0].(*mat.Dense)
		for r := 1; r < p; r++ {
			q = mat.VStack(q, parts[r].(*mat.Dense))
		}
	}
	res.Q = q
	res.B = bK
	res.Rank = bK.Rows
	return res, nil
}

// qbSnapshot is one rank's RandQB_EI loop state at an iteration
// boundary: the rank-local basis panel, the replicated B_K, the error
// recurrence and the RNG draw count (so a resume redraws the same
// sketches). All fields are deep copies.
type qbSnapshot struct {
	draws         int
	e             float64
	qKLoc         *mat.Dense
	bK            *mat.Dense
	errIndicator  float64
	errHistory    []float64
	timeHistory   []time.Duration
	orthLossFirst float64
	orthLossLast  float64
}
