// Package sparselr's root-level seed-drift gate: the default (Gaussian)
// sketch path must keep producing bit-identical factors to the historical
// implementation, so published seed results stand. Each case runs a solver
// on a fixed synthetic low-rank matrix and FNV-hashes the factor entries
// (IEEE-754 bit patterns, little-endian) plus the convergence metadata;
// the expected hashes were captured from the pre-sketch-layer code and any
// change to them means the default path drifted. verify.sh runs this as
// its drift-gate step.
package sparselr

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"sparselr/internal/arrf"
	"sparselr/internal/cur"
	"sparselr/internal/dist"
	"sparselr/internal/lucrtp"
	"sparselr/internal/mat"
	"sparselr/internal/randqb"
	"sparselr/internal/randubv"
	"sparselr/internal/rsvd"
	"sparselr/internal/sparse"
)

// driftMatrix builds a deterministic sparse sum of r sparse rank-1 terms
// with geometrically decaying weights — low-rank-plus-tail structure every
// solver under test converges on.
func driftMatrix(m, n, r int, rate float64, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	b := sparse.NewBuilder(m, n)
	sigma := 1.0
	for t := 0; t < r; t++ {
		ui := rng.Perm(m)[:4+rng.Intn(3)]
		vi := rng.Perm(n)[:4+rng.Intn(3)]
		uv := make([]float64, len(ui))
		vv := make([]float64, len(vi))
		for x := range uv {
			uv[x] = 0.5 + rng.Float64()
		}
		for x := range vv {
			vv[x] = 0.5 + rng.Float64()
		}
		for x, i := range ui {
			for y, j := range vi {
				b.Add(i, j, sigma*uv[x]*vv[y])
			}
		}
		sigma *= rate
	}
	return b.ToCSR()
}

// driftHash accumulates uint64 words into FNV-64a in little-endian order.
type driftHash struct {
	h interface{ Write([]byte) (int, error) }
}

func newDriftHash() *driftHash { return &driftHash{fnv.New64a()} }

func (w *driftHash) u64(v uint64) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	w.h.Write(b[:])
}

func (w *driftHash) dense(d *mat.Dense) {
	w.u64(uint64(d.Rows))
	w.u64(uint64(d.Cols))
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			w.u64(math.Float64bits(d.At(i, j)))
		}
	}
}

func (w *driftHash) csr(c *sparse.CSR) {
	w.u64(uint64(c.Rows))
	w.u64(uint64(c.Cols))
	for _, p := range c.RowPtr {
		w.u64(uint64(p))
	}
	for _, j := range c.ColIdx {
		w.u64(uint64(j))
	}
	for _, v := range c.Val {
		w.u64(math.Float64bits(v))
	}
}

func (w *driftHash) ints(xs []int) {
	w.u64(uint64(len(xs)))
	for _, x := range xs {
		w.u64(uint64(x))
	}
}

func (w *driftHash) sum() uint64 { return w.h.(interface{ Sum64() uint64 }).Sum64() }

func driftA() *sparse.CSR { return driftMatrix(180, 150, 60, 0.75, 42) }

func checkDrift(t *testing.T, name string, got, want uint64) {
	t.Helper()
	if got != want {
		t.Errorf("%s: default-Gaussian output drifted: hash %016x, want %016x (seed results no longer reproducible)", name, got, want)
	}
}

func TestSeedDriftRandQBSerial(t *testing.T) {
	r, err := randqb.Factor(driftA(), randqb.Options{BlockSize: 8, Tol: 1e-3, Power: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	w := newDriftHash()
	w.dense(r.Q)
	w.dense(r.B)
	w.u64(math.Float64bits(r.ErrIndicator))
	w.u64(uint64(r.Rank))
	w.u64(uint64(r.Iters))
	checkDrift(t, "randqb_serial", w.sum(), 0x5964309abe663aa6)
}

func TestSeedDriftRandQBDist(t *testing.T) {
	var r *randqb.Result
	dist.Run(4, dist.DefaultConfig(), func(c *dist.Comm) {
		rr, err := randqb.FactorDist(c, driftA(), randqb.Options{BlockSize: 8, Tol: 1e-3, Power: 1, Seed: 7})
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			r = rr
		}
	})
	w := newDriftHash()
	w.dense(r.Q)
	w.dense(r.B)
	w.u64(math.Float64bits(r.ErrIndicator))
	w.u64(uint64(r.Rank))
	checkDrift(t, "randqb_dist4", w.sum(), 0x46b8a828d5991f58)
}

func TestSeedDriftRandUBVSerial(t *testing.T) {
	r, err := randubv.Factor(driftA(), randubv.Options{BlockSize: 8, Tol: 1e-3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	w := newDriftHash()
	w.dense(r.U)
	w.dense(r.B)
	w.dense(r.V)
	w.u64(math.Float64bits(r.ErrIndicator))
	w.u64(uint64(r.Rank))
	checkDrift(t, "randubv_serial", w.sum(), 0x1d20b624ba0a318c)
}

func TestSeedDriftRandUBVDist(t *testing.T) {
	var r *randubv.Result
	dist.Run(3, dist.DefaultConfig(), func(c *dist.Comm) {
		rr, err := randubv.FactorDist(c, driftA(), randubv.Options{BlockSize: 8, Tol: 1e-3, Seed: 5})
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			r = rr
		}
	})
	w := newDriftHash()
	w.dense(r.U)
	w.dense(r.B)
	w.dense(r.V)
	w.u64(math.Float64bits(r.ErrIndicator))
	w.u64(uint64(r.Rank))
	checkDrift(t, "randubv_dist3", w.sum(), 0xa5e50e8fc66c7e94)
}

func TestSeedDriftRSVD(t *testing.T) {
	r, err := rsvd.Factor(driftA(), rsvd.Options{InitialRank: 8, Tol: 1e-2, Power: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	w := newDriftHash()
	w.dense(r.U)
	for _, s := range r.S {
		w.u64(math.Float64bits(s))
	}
	w.dense(r.V)
	w.u64(uint64(r.Rank))
	checkDrift(t, "rsvd", w.sum(), 0xdd1b522ca8b01c90)
}

// curDriftHash hashes a skeleton result: indices, sparse outer factors,
// dense core, and the convergence metadata. The skeleton goldens depend
// on the fixed-block ResidualFrobNorm reduction and must hash the same
// at every GOMAXPROCS.
func curDriftHash(r *cur.Result) uint64 {
	w := newDriftHash()
	w.ints(r.RowIdx)
	w.ints(r.ColIdx)
	w.csr(r.C)
	w.csr(r.R)
	w.dense(r.U)
	w.u64(math.Float64bits(r.ErrIndicator))
	w.u64(uint64(r.Rank))
	w.u64(uint64(r.Iters))
	return w.sum()
}

func TestSeedDriftCUR(t *testing.T) {
	r, err := cur.Factor(driftA(), cur.Options{Variant: cur.CUR, BlockSize: 8, Tol: 1e-2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	checkDrift(t, "cur", curDriftHash(r), 0x4901d7db232153a6)
}

func TestSeedDriftTwoSidedID(t *testing.T) {
	r, err := cur.Factor(driftA(), cur.Options{Variant: cur.ID2, BlockSize: 8, Tol: 1e-2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	checkDrift(t, "id2", curDriftHash(r), 0x3e6353d6b0266413)
}

func TestSeedDriftACA(t *testing.T) {
	r, err := cur.Factor(driftA(), cur.Options{Variant: cur.ACA, BlockSize: 8, Tol: 1e-2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	checkDrift(t, "aca", curDriftHash(r), 0x5171c0e16505750f)
}

func TestSeedDriftARRF(t *testing.T) {
	r, err := arrf.Factor(driftA(), arrf.Options{Tol: 1e-2, RelativeToFrob: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	w := newDriftHash()
	w.dense(r.Q)
	w.u64(uint64(r.Rank))
	w.u64(uint64(r.Probes))
	checkDrift(t, "arrf", w.sum(), 0x39fedc1b75b7f084)
}

// luDriftHash hashes an LU_CRTP result: the sparse factors and both
// permutations, so any drift in the tournament's pivots shows. The LU
// goldens were captured from the tournament that ran full QRCP on dense
// m-row panels.
func luDriftHash(r *lucrtp.Result) uint64 {
	w := newDriftHash()
	w.csr(r.L)
	w.csr(r.U)
	w.ints(r.RowPerm)
	w.ints(r.ColPerm)
	return w.sum()
}

func TestSeedDriftLUCRTP(t *testing.T) {
	r, err := lucrtp.Factor(driftA(), lucrtp.Options{BlockSize: 8, Tol: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	checkDrift(t, "lucrtp", luDriftHash(r), 0xd2c794de6b40ecfe)
}

func TestSeedDriftILUTCRTP(t *testing.T) {
	r, err := lucrtp.Factor(driftA(), lucrtp.Options{BlockSize: 8, Tol: 1e-2, Threshold: lucrtp.AutoThreshold})
	if err != nil {
		t.Fatal(err)
	}
	checkDrift(t, "ilutcrtp", luDriftHash(r), 0xbdd0eecc8903a987)
}

func TestSeedDriftLUCRTPDist(t *testing.T) {
	var r *lucrtp.Result
	dist.Run(4, dist.DefaultConfig(), func(c *dist.Comm) {
		rr, err := lucrtp.FactorDist(c, driftA(), lucrtp.Options{BlockSize: 8, Tol: 1e-2})
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			r = rr
		}
	})
	checkDrift(t, "lucrtp_dist4", luDriftHash(r), 0xd2c794de6b40ecfe)
}

// TestSeedDriftLUCRTPNumRank pins LU_CRTP's last-block path: the fixture
// has rank 13, so with k = 8 the second panel keeps only 5 significant
// columns and the three leftover winners stay at the front of the
// trailing block. The hash also covers the error history, which is the
// only output of that last Schur complement.
func TestSeedDriftLUCRTPNumRank(t *testing.T) {
	r, err := lucrtp.Factor(driftMatrix(120, 100, 13, 0.75, 43), lucrtp.Options{BlockSize: 8, Tol: 1e-15, StopAtNumericalRank: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.HitNumRank || r.Rank != 13 || r.Iters != 2 {
		t.Fatalf("fixture no longer cuts the second panel: rank %d after %d iterations, HitNumRank %v", r.Rank, r.Iters, r.HitNumRank)
	}
	w := newDriftHash()
	w.u64(luDriftHash(r))
	for _, e := range r.ErrHistory {
		w.u64(math.Float64bits(e))
	}
	checkDrift(t, "lucrtp_numrank", w.sum(), 0xc3625b87e97fb9a4)
}
