package ordering

import "sparselr/internal/sparse"

// COLAMD returns a fill-reducing column permutation of a. The result perm
// satisfies: column j of the reordered matrix is column perm[j] of a.
// Empty columns are ordered last.
func COLAMD(a *sparse.CSR) []int {
	m, n := a.Dims()
	// Row patterns as mutable slices of column indices; rows merge as
	// columns are eliminated.
	rowPat := make([][]int32, m)
	for i := 0; i < m; i++ {
		cols, _ := a.RowView(i)
		p := make([]int32, len(cols))
		for k, j := range cols {
			p[k] = int32(j)
		}
		rowPat[i] = p
	}
	alive := make([]bool, m)
	for i := range alive {
		alive[i] = len(rowPat[i]) > 0
	}
	// colRows[j]: rows (by id, possibly stale) that contain column j.
	// Stale ids (dead rows) are filtered lazily on access.
	colRows := make([][]int32, n)
	for i := 0; i < m; i++ {
		for _, j := range rowPat[i] {
			colRows[j] = append(colRows[j], int32(i))
		}
	}
	eliminated := make([]bool, n)
	// Approximate external degree of each live column.
	deg := func(j int) int {
		d := 0
		live := colRows[j][:0]
		for _, r := range colRows[j] {
			if alive[r] {
				live = append(live, r)
				d += len(rowPat[r]) - 1
			}
		}
		colRows[j] = live
		return d
	}
	h := newDegreeHeap(n, deg)
	perm := make([]int, 0, n)
	touched := make([]bool, n)
	for len(perm) < n {
		j := h.pop()
		eliminated[j] = true
		perm = append(perm, j)
		// Merge all live rows containing j into one super-row.
		var merged []int32
		for _, r := range colRows[j] {
			if !alive[r] {
				continue
			}
			alive[r] = false
			for _, c := range rowPat[r] {
				if int(c) == j || eliminated[c] {
					continue
				}
				if !touched[c] {
					touched[c] = true
					merged = append(merged, c)
				}
			}
			rowPat[r] = nil
		}
		colRows[j] = nil
		if len(merged) > 0 {
			// Register the super-row under a fresh id.
			rid := int32(len(rowPat))
			rowPat = append(rowPat, merged)
			alive = append(alive, true)
			for _, c := range merged {
				colRows[c] = append(colRows[c], rid)
			}
		}
		// Refresh the degrees of the columns the merge touched.
		for _, c := range merged {
			touched[c] = false
			h.update(int(c), deg(int(c)))
		}
	}
	return perm
}

// degreeHeap is an indexed binary min-heap over the live columns, keyed
// by (degree, column): the column tie-break makes every key unique, so
// the pop order depends only on the degrees, never on the heap's shape.
// Each column holds exactly one slot; a degree change moves it in place.
type degreeHeap struct {
	cols []int32 // heap slots
	pos  []int32 // pos[j]: slot of column j
	deg  []int   // deg[j]: current degree of column j
}

func newDegreeHeap(n int, deg func(j int) int) *degreeHeap {
	h := &degreeHeap{cols: make([]int32, n), pos: make([]int32, n), deg: make([]int, n)}
	for j := 0; j < n; j++ {
		h.cols[j] = int32(j)
		h.pos[j] = int32(j)
		h.deg[j] = deg(j)
	}
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

func (h *degreeHeap) less(a, b int) bool {
	ca, cb := h.cols[a], h.cols[b]
	if h.deg[ca] != h.deg[cb] {
		return h.deg[ca] < h.deg[cb]
	}
	return ca < cb
}

func (h *degreeHeap) swap(a, b int) {
	h.cols[a], h.cols[b] = h.cols[b], h.cols[a]
	h.pos[h.cols[a]] = int32(a)
	h.pos[h.cols[b]] = int32(b)
}

func (h *degreeHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *degreeHeap) down(i int) {
	n := len(h.cols)
	for {
		small := i
		if l := 2*i + 1; l < n && h.less(l, small) {
			small = l
		}
		if r := 2*i + 2; r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}

// pop removes and returns the column with the smallest (degree, column).
func (h *degreeHeap) pop() int {
	j := h.cols[0]
	last := len(h.cols) - 1
	h.swap(0, last)
	h.cols = h.cols[:last]
	h.down(0)
	return int(j)
}

// update sets the degree of live column j and restores the heap order.
func (h *degreeHeap) update(j, d int) {
	old := h.deg[j]
	h.deg[j] = d
	if d < old {
		h.up(int(h.pos[j]))
	} else if d > old {
		h.down(int(h.pos[j]))
	}
}

// ColEtree computes the column elimination tree of a, i.e. the
// elimination tree of AᵀA, without forming the product (CSparse's
// cs_etree with the ata option). parent[j] = -1 marks a root.
func ColEtree(a *sparse.CSR) []int {
	m, n := a.Dims()
	parent := make([]int, n)
	ancestor := make([]int, n)
	prev := make([]int, m)
	for i := range prev {
		prev[i] = -1
	}
	// Column access pattern: walk the CSC form.
	csc := a.ToCSC()
	for k := 0; k < n; k++ {
		parent[k] = -1
		ancestor[k] = -1
		rows, _ := csc.ColView(k)
		for _, r := range rows {
			i := prev[r]
			for i != -1 && i < k {
				inext := ancestor[i]
				ancestor[i] = k
				if inext == -1 {
					parent[i] = k
				}
				i = inext
			}
			prev[r] = k
		}
	}
	return parent
}

// PostOrder returns a postorder traversal of the forest described by
// parent (as produced by ColEtree). The result maps new position → node.
func PostOrder(parent []int) []int {
	n := len(parent)
	// Build child lists (reversed insertion keeps ascending child order
	// when popped from the stack).
	head := make([]int, n)
	next := make([]int, n)
	for i := range head {
		head[i] = -1
	}
	for j := n - 1; j >= 0; j-- {
		p := parent[j]
		if p == -1 {
			continue
		}
		next[j] = head[p]
		head[p] = j
	}
	post := make([]int, 0, n)
	stack := make([]int, 0, n)
	for root := 0; root < n; root++ {
		if parent[root] != -1 {
			continue
		}
		stack = append(stack, root)
		for len(stack) > 0 {
			j := stack[len(stack)-1]
			c := head[j]
			if c == -1 {
				post = append(post, j)
				stack = stack[:len(stack)-1]
			} else {
				head[j] = next[c]
				stack = append(stack, c)
			}
		}
	}
	return post
}

// FillReducingOrder composes COLAMD with a postorder of the column
// elimination tree of the COLAMD-permuted matrix, returning a single
// column permutation of a (perm[j] = original column of new column j).
func FillReducingOrder(a *sparse.CSR) []int {
	camd := COLAMD(a)
	ap := a.PermuteCols(camd)
	post := PostOrder(ColEtree(ap))
	perm := make([]int, len(camd))
	for newj, mid := range post {
		perm[newj] = camd[mid]
	}
	return perm
}
