// Package spvec implements the sequential sparse- and dense-vector kernels
// of the paper's Table I: IND, SELECT, SET, REDUCE and the tuple preparation
// for SORTPERM. A sparse vector represents a subset of vertices (the BFS
// frontier); a dense vector stores per-vertex state (labels, levels,
// degrees). These kernels are used both by the sequential matrix-algebraic
// reference implementation and, on local chunks, by the distributed one.
package spvec

import "repro/internal/psort"

// Sp is a sparse vector: parallel, index-sorted slices of indices and
// values. Indices are unique. The zero value is the empty vector.
type Sp struct {
	Ind []int
	Val []int64
}

// Len returns nnz(x).
func (x *Sp) Len() int { return len(x.Ind) }

// Reset empties the vector, keeping capacity.
func (x *Sp) Reset() {
	x.Ind = x.Ind[:0]
	x.Val = x.Val[:0]
}

// Append adds an entry; the caller must keep indices sorted and unique.
func (x *Sp) Append(ind int, val int64) {
	x.Ind = append(x.Ind, ind)
	x.Val = append(x.Val, val)
}

// Single returns a sparse vector with one entry.
func Single(ind int, val int64) *Sp {
	return &Sp{Ind: []int{ind}, Val: []int64{val}}
}

// Ind returns the indices of the nonzero entries: the IND primitive. The
// returned slice shares storage with x.
func Ind(x *Sp) []int { return x.Ind }

// Select keeps the entries of x whose index satisfies pred over the dense
// vector y: the SELECT(x, y, expr) primitive. A fresh vector is returned.
func Select(x *Sp, y []int64, pred func(int64) bool) *Sp {
	out := &Sp{}
	for k, i := range x.Ind {
		if pred(y[i]) {
			out.Append(i, x.Val[k])
		}
	}
	return out
}

// SetDense overwrites y at the nonzero indices of x with x's values: the
// SET(y, x) primitive (other entries of y are unchanged).
func SetDense(y []int64, x *Sp) {
	for k, i := range x.Ind {
		y[i] = x.Val[k]
	}
}

// GatherDense replaces the values of x with the corresponding entries of the
// dense vector y: the SET(Lcur, R) step at the top of the BFS loop in
// Algorithm 3 (the frontier picks up the labels assigned last round).
func GatherDense(x *Sp, y []int64) {
	for k, i := range x.Ind {
		x.Val[k] = y[i]
	}
}

// Reduce folds the entries of the dense vector y at the nonzero indices of x
// using op, starting from identity: the REDUCE(x, y, op) primitive.
func Reduce(x *Sp, y []int64, identity int64, op func(a, b int64) int64) int64 {
	acc := identity
	for _, i := range x.Ind {
		acc = op(acc, y[i])
	}
	return acc
}

// ArgMinBy returns the index of x minimizing (key(i), i), together with the
// key, or (-1, 0) for an empty vector. It implements the "vertex of minimum
// degree in the last level" reduction of Algorithm 4 with deterministic
// tie-breaking by vertex id.
func ArgMinBy(x *Sp, key []int64) (ind int, k int64) {
	if x.Len() == 0 {
		return -1, 0
	}
	ind, k = x.Ind[0], key[x.Ind[0]]
	for _, i := range x.Ind[1:] {
		if key[i] < k || (key[i] == k && i < ind) {
			ind, k = i, key[i]
		}
	}
	return ind, k
}

// Tuple is one SORTPERM record: the (parent label, degree, vertex id) triple
// whose lexicographic order defines the labels of the next frontier.
type Tuple struct {
	Parent int64
	Degree int64
	Vertex int
}

// TuplesOf builds the SORTPERM records of a frontier whose values hold
// parent labels, looking degrees up in deg.
func TuplesOf(x *Sp, deg []int64) []Tuple {
	ts := make([]Tuple, x.Len())
	for k, i := range x.Ind {
		ts[k] = Tuple{Parent: x.Val[k], Degree: deg[i], Vertex: i}
	}
	return ts
}

// SortTuples sorts records lexicographically; the resulting positions are
// the SORTPERM permutation. The sort is the linear-time counting/radix sort
// over the three integer fields (the CG80-style Cuthill-McKee labeling),
// not a comparison sort.
func SortTuples(ts []Tuple) {
	SortTuplesWS(nil, ts)
}

// SortTuplesWS is SortTuples with an explicit scratch workspace (nil
// allocates locally), for callers that sort once per BFS level.
func SortTuplesWS(ws *psort.Scratch[Tuple], ts []Tuple) {
	psort.LexWS(ws, ts, 1,
		func(t Tuple) uint64 { return uint64(t.Parent) },
		func(t Tuple) uint64 { return uint64(t.Degree) },
		func(t Tuple) uint64 { return uint64(t.Vertex) })
}

// Fill sets every entry of a dense vector to v.
func Fill(y []int64, v int64) {
	for i := range y {
		y[i] = v
	}
}

// NewDense allocates a dense vector of length n filled with v.
func NewDense(n int, v int64) []int64 {
	y := make([]int64, n)
	if v != 0 {
		Fill(y, v)
	}
	return y
}
