// Package sparse implements the sparse-matrix substrate for the low-rank
// approximation algorithms: CSR, CSC and COO storage, sparse×dense and
// sparse×sparse products, row/column permutation, panel extraction,
// blocks of a permuted matrix read in place (PermutedView) with the fused
// LU_CRTP Schur update, norms, thresholding with captured perturbation
// matrices (the T̃ factors of ILUT_CRTP), fill statistics and MatrixMarket
// I/O.
//
// It plays the role SuiteSparse and the sparse side of Elemental played in
// the original paper's C++ implementation.
package sparse
