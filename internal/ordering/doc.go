// Package ordering implements the fill-reducing column preprocessing the
// paper applies before LU_CRTP: a COLAMD-style approximate-minimum-degree
// column ordering, the column elimination tree of AᵀA, and its postorder
// traversal. The pipeline FillReducingOrder mirrors the paper's §V setup:
// "the input matrix was first permuted using COLAMD followed by a
// postorder traversal of its column elimination tree".
//
// COLAMD here follows the row-merge model of Davis, Gilbert, Larimore and
// Ng: eliminating a column merges every row containing it into a single
// super-row (the QR/Cholesky fill model for AᵀA), and column degrees are
// tracked with the approximate external degree bound Σ(len(row)−1) used
// by the original algorithm. The next column to eliminate comes from an
// indexed min-heap keyed by (degree, column), one slot per live column,
// so a degree change moves the column in place.
package ordering
