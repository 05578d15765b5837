package main

import (
	"math/rand"

	"sparselr/internal/core"
	"sparselr/internal/gen"
	"sparselr/internal/sparse"
)

// tol is τ for every solve the benchmark runs except the serve
// catalog's looser entries.
const tol = 1e-2

// blockSize is k for every solve.
const blockSize = 16

// tableI generates the six Table I analogs at scale s and applies a
// row and a column permutation drawn from seed to each. A permutation
// keeps the singular values, the nonzero count and the structure class
// of the analog, so every seed gives an input of the same difficulty
// while no two seeds give the same input.
func tableI(s gen.Scale, seed int64) map[string]*sparse.CSR {
	out := map[string]*sparse.CSR{}
	for i, pm := range gen.TableI(s) {
		rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
		m, n := pm.A.Dims()
		out[pm.Label] = pm.A.PermuteRows(rng.Perm(m)).PermuteCols(rng.Perm(n))
	}
	return out
}

// solveCase is one (method, matrix) pair of a solver workload.
type solveCase struct {
	method core.Method
	label  string
}

func (c solveCase) name() string { return c.method.String() + "." + c.label }

// randomizedCases are the randomized workload's solves: RandQB_EI on
// every analog and CUR on the three whose skeletons stay small.
var randomizedCases = []solveCase{
	{core.RandQBEI, "M1"}, {core.RandQBEI, "M2"}, {core.RandQBEI, "M3"},
	{core.RandQBEI, "M4"}, {core.RandQBEI, "M5"}, {core.RandQBEI, "M6"},
	{core.CUR, "M2"}, {core.CUR, "M4"}, {core.CUR, "M6"},
}

// deterministicCases are the deterministic workload's solves: the
// high-fill M2 and the hub-row M6.
var deterministicCases = []solveCase{
	{core.LUCRTP, "M2"}, {core.ILUTCRTP, "M2"},
	{core.LUCRTP, "M6"}, {core.ILUTCRTP, "M6"},
}

// allCases is every pair a traced run reports core.solve_s for.
var allCases = append(append([]solveCase(nil), randomizedCases...), deterministicCases...)

// options returns the library options of the case in pass p of a run
// under the workload seed. Only the randomized methods read the seed.
// Each pass draws its own sketches, so the median pass of a run does not
// hinge on one sketch that needs more work than most (see
// solveWorkload).
func (c solveCase) options(seed int64, p int) core.Options {
	o := core.Options{Method: c.method, BlockSize: blockSize, Tol: tol}
	switch c.method {
	case core.RandQBEI:
		o.Power = 1
	}
	o.Seed = (seed*1000+int64(p))*1000 + int64(c.method)*10 + int64(c.label[1]-'0')
	return o
}
