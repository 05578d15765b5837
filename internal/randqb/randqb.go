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

// IndicatorBreakdownTol is the double-precision validity limit of the
// error indicator: Theorem 3 of Yu et al. shows eq (4) fails for
// τ < 2.1·10⁻⁷.
const IndicatorBreakdownTol = 2.1e-7

// Options configures a RandQB_EI run.
type Options struct {
	BlockSize int     // k; defaults to 8
	Tol       float64 // τ
	Power     int     // p ∈ [0, 3]: power-scheme iterations per block
	MaxRank   int     // cap on K; 0 means min(m, n)
	Seed      int64   // PRNG seed for the sketches
	// Sketch selects the sketching operator (default Gaussian reproduces
	// historical results bit-for-bit); SketchNNZ configures SparseSign.
	Sketch    sketch.Kind
	SketchNNZ int
	// TrackOrthLoss records ‖Q_KᵀQ_K − I‖∞ after the first and the last
	// iteration (§VI-B reports its growth from ~1e-15..1e-14 upward).
	TrackOrthLoss bool

	// CheckpointEvery > 0 makes FactorDist save each rank's loop state
	// into Checkpoint at the end of every CheckpointEvery-th iteration.
	// When Checkpoint already holds a complete snapshot (from a faulted
	// run), FactorDist resumes from it and reproduces the uninterrupted
	// result bit-identically. RandQB_EI's sequential Factor is a
	// separate loop that does not checkpoint (DESIGN.md §4, "One loop
	// per solver").
	CheckpointEvery int
	Checkpoint      *dist.CheckpointStore
}

func (o *Options) defaults() {
	if o.BlockSize <= 0 {
		o.BlockSize = 8
	}
	if o.Power < 0 || o.Power > 3 {
		panic(fmt.Sprintf("randqb: power parameter %d outside [0,3]", o.Power))
	}
}

// Result holds the factorization output and telemetry.
type Result struct {
	Q *mat.Dense // m×K, orthonormal columns
	B *mat.Dense // K×n

	Rank  int
	Iters int
	NormA float64

	ErrIndicator float64 // final E⁽ⁱ⁾ (eq 4)
	Converged    bool
	// IndicatorUnreliable is set when τ < 2.1e-7 (Theorem 3 regime).
	IndicatorUnreliable bool

	ErrHistory  []float64
	TimeHistory []time.Duration

	OrthLossFirst float64 // ‖QᵀQ−I‖∞ after iteration 1
	OrthLossLast  float64 // ... after the final iteration
}

// Approx reconstructs the dense approximation Q_K·B_K.
func (r *Result) Approx() *mat.Dense { return mat.Mul(r.Q, r.B) }

// TrueError computes ‖A − Q_K·B_K‖_F exactly (eq 3) by streaming the CSR
// rows of A against the factors — O(nnz + mk) extra memory, A is never
// densified.
func TrueError(a *sparse.CSR, r *Result) float64 {
	return a.ResidualFrobNorm(r.Q, r.B)
}

// MinRank returns the smallest rank r ≤ K such that the best rank-r
// truncation of Q_K·B_K satisfies the tolerance — the "approximated
// minimum rank" of Figs 2–3, determined at small cost from the singular
// values of B_K (§VI-B).
func (r *Result) MinRank(tol float64) int {
	if r.B.IsEmpty() {
		return 0
	}
	sv := mat.SingularValues(r.B)
	normA2 := r.NormA * r.NormA
	captured := 0.0
	for i, s := range sv {
		captured += s * s
		rem := normA2 - captured
		if rem < 0 {
			rem = 0
		}
		if math.Sqrt(rem) < tol*r.NormA {
			return i + 1
		}
	}
	return r.Rank
}

// qbState carries the grow-only factor stores and reusable workspaces of
// one RandQB_EI run. Q_K lives in qData as an m×capK panel (stride capK),
// B_K in bData as contiguous K rows of length n, and — only under the
// power scheme — B_Kᵀ in btData as an n×capK panel, maintained
// incrementally so no transpose is ever re-materialized in the loop.
type qbState struct {
	a    *sparse.CSR
	opts Options
	sk   sketch.Sketcher

	m, n, maxRank int
	e             float64 // running E = ‖A‖²_F − Σ‖B_k‖²_F
	kCur          int     // current K (columns of Q_K)
	capK          int

	qData, bData, btData []float64
	qHdr, bHdr, btHdr    mat.Dense // reusable view headers

	wsQ, wsQh            mat.OrthWorkspace
	y, bom, qh, proj, bt mat.Buffer

	res   *Result
	start time.Time
}

func newQBState(a *sparse.CSR, opts Options) (*qbState, error) {
	opts.defaults()
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return nil, fmt.Errorf("randqb: empty matrix %d×%d", m, n)
	}
	maxRank := opts.MaxRank
	if maxRank <= 0 || maxRank > min(m, n) {
		maxRank = min(m, n)
	}
	normA := a.FrobNorm()
	res := &Result{NormA: normA}
	if opts.Tol > 0 && opts.Tol < IndicatorBreakdownTol {
		res.IndicatorUnreliable = true
	}
	iterCap := maxRank/opts.BlockSize + 2
	res.ErrHistory = make([]float64, 0, iterCap)
	res.TimeHistory = make([]time.Duration, 0, iterCap)
	st := &qbState{
		a: a, opts: opts,
		sk: sketch.New(opts.Sketch, n, opts.Seed, opts.SketchNNZ),
		m:  m, n: n, maxRank: maxRank,
		e:   normA * normA,
		res: res, start: time.Now(),
	}
	st.ensureCap(min(2*opts.BlockSize, maxRank))
	return st, nil
}

// ensureCap grows the factor stores to hold at least k columns of Q_K
// (rows of B_K), doubling so growth cost amortizes away.
func (st *qbState) ensureCap(k int) {
	if k <= st.capK {
		return
	}
	newCap := st.capK * 2
	if newCap < k {
		newCap = k
	}
	if newCap > st.maxRank {
		newCap = st.maxRank
	}
	q := make([]float64, st.m*newCap)
	for i := 0; i < st.m; i++ {
		copy(q[i*newCap:i*newCap+st.kCur], st.qData[i*st.capK:i*st.capK+st.kCur])
	}
	b := make([]float64, newCap*st.n)
	copy(b, st.bData[:st.kCur*st.n])
	st.qData, st.bData = q, b
	if st.opts.Power > 0 {
		bt := make([]float64, st.n*newCap)
		for i := 0; i < st.n; i++ {
			copy(bt[i*newCap:i*newCap+st.kCur], st.btData[i*st.capK:i*st.capK+st.kCur])
		}
		st.btData = bt
	}
	st.capK = newCap
}

// qKView returns the m×K view of the Q store (valid until ensureCap).
func (st *qbState) qKView() *mat.Dense {
	st.qHdr = mat.Dense{Rows: st.m, Cols: st.kCur, Stride: st.capK, Data: st.qData}
	return &st.qHdr
}

// bKView returns the K×n view of the B store.
func (st *qbState) bKView() *mat.Dense {
	st.bHdr = mat.Dense{Rows: st.kCur, Cols: st.n, Stride: st.n, Data: st.bData[:st.kCur*st.n]}
	return &st.bHdr
}

// btKView returns the n×K view of the Bᵀ store (power scheme only).
func (st *qbState) btKView() *mat.Dense {
	st.btHdr = mat.Dense{Rows: st.n, Cols: st.kCur, Stride: st.capK, Data: st.btData}
	return &st.btHdr
}

// step runs one block iteration (lines 4–14 of Algorithm 1) and reports
// whether the loop is done. Steady state allocates nothing: every
// intermediate lives in a grow-only workspace.
func (st *qbState) step(iter int) bool {
	if st.kCur >= st.maxRank {
		return true
	}
	kEff := min(st.opts.BlockSize, st.maxRank-st.kCur)
	// Line 4: draw the sketch block.
	blk := st.sk.Next(kEff)
	// Line 5: Q_k = orth(A·Ω − Q_K(B_K·Ω)).
	y := st.y.Shape(st.m, kEff)
	blk.MulCSRInto(y, st.a)
	if st.kCur > 0 {
		bom := st.bom.Shape(st.kCur, kEff)
		blk.MulDenseInto(bom, st.bKView())
		mat.MulSub(y, st.qKView(), bom)
	}
	qk := st.wsQ.Orth(y)
	// Lines 6–9: power scheme on (AAᵀ)ᵖ.
	for r := 0; r < st.opts.Power; r++ {
		// Q̂ = orth(AᵀQ_k − B_Kᵀ(Q_KᵀQ_k)).
		qh := st.qh.Shape(st.n, qk.Cols)
		st.a.MulTDenseInto(qh, qk)
		if st.kCur > 0 {
			proj := st.proj.Shape(st.kCur, qk.Cols)
			mat.MulTInto(proj, st.qKView(), qk)
			mat.MulSub(qh, st.btKView(), proj)
		}
		qhat := st.wsQh.Orth(qh)
		// Q_k = orth(A·Q̂ − Q_K(B_K·Q̂)).
		y2 := st.y.Shape(st.m, qhat.Cols)
		st.a.MulDenseInto(y2, qhat)
		if st.kCur > 0 {
			bqh := st.bom.Shape(st.kCur, qhat.Cols)
			mat.MulInto(bqh, st.bKView(), qhat)
			mat.MulSub(y2, st.qKView(), bqh)
		}
		qk = st.wsQ.Orth(y2)
	}
	// Line 10: re-orthogonalization against Q_K.
	if st.kCur > 0 {
		proj := st.proj.Shape(st.kCur, qk.Cols)
		mat.MulTInto(proj, st.qKView(), qk)
		mat.MulSub(qk, st.qKView(), proj)
		qk = st.wsQ.Orth(qk)
	}
	if qk.Cols == 0 {
		// The sketch found no new directions: the range is captured.
		return true
	}
	kc := qk.Cols
	// Line 11: B_k = Q_kᵀ·A, computed as (Aᵀ·Q_k)ᵀ to exploit CSR.
	bt := st.bt.Shape(st.n, kc)
	st.a.MulTDenseInto(bt, qk)
	// Line 12: expand the stores in place.
	st.ensureCap(st.kCur + kc)
	for i := 0; i < st.m; i++ {
		copy(st.qData[i*st.capK+st.kCur:], qk.Row(i))
	}
	for j := 0; j < st.n; j++ {
		btRow := bt.Row(j)
		for i := 0; i < kc; i++ {
			st.bData[(st.kCur+i)*st.n+j] = btRow[i]
		}
	}
	if st.opts.Power > 0 {
		for j := 0; j < st.n; j++ {
			copy(st.btData[j*st.capK+st.kCur:], bt.Row(j))
		}
	}
	bkNew := mat.Dense{Rows: kc, Cols: st.n, Stride: st.n, Data: st.bData[st.kCur*st.n : (st.kCur+kc)*st.n]}
	st.kCur += kc
	// Lines 13–14: error indicator update and test.
	st.e -= bkNew.FrobNorm2()
	if st.e < 0 {
		st.e = 0
	}
	ind := math.Sqrt(st.e)
	st.res.ErrHistory = append(st.res.ErrHistory, ind)
	st.res.TimeHistory = append(st.res.TimeHistory, time.Since(st.start))
	st.res.Iters = iter
	st.res.ErrIndicator = ind
	if st.opts.TrackOrthLoss {
		loss := orthLoss(st.qKView())
		if iter == 1 {
			st.res.OrthLossFirst = loss
		}
		st.res.OrthLossLast = loss
	}
	if ind < st.opts.Tol*st.res.NormA {
		st.res.Converged = true
		return true
	}
	return false
}

// finish compacts the factors out of the strided stores.
func (st *qbState) finish() *Result {
	st.res.Q = st.qKView().Clone()
	st.res.B = st.bKView().Clone()
	st.res.Rank = st.kCur
	return st.res
}

// Factor runs Algorithm 1 on a.
func Factor(a *sparse.CSR, opts Options) (*Result, error) {
	st, err := newQBState(a, opts)
	if err != nil {
		return nil, err
	}
	for iter := 1; ; iter++ {
		if st.step(iter) {
			break
		}
	}
	return st.finish(), nil
}

func orthLoss(q *mat.Dense) float64 {
	g := mat.MulT(q, q)
	g.Sub(mat.Identity(q.Cols))
	return g.InfNorm()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
