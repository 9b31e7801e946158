package spmat

import "sort"

// Parallel bulk kernels over row blocks: the ingest-and-permute path of the
// ordering service runs these on every request (the Before/After statistics,
// and PAPᵀ when the caller asks for it), so at high cache hit ratios they —
// not the ordering engines — are the serving bottleneck. Each kernel
// partitions the rows with Blocks/WeightedBlocks and either writes disjoint
// output ranges or reduces per-block partials, so the results are
// byte-identical to the serial methods at any thread count. threads < 1
// selects GOMAXPROCS.

// minParallelRows gates the goroutine fan-out: below this size the spawn
// overhead exceeds the sweep itself. A variable so the equivalence tests can
// force the parallel path on small fixtures.
var minParallelRows = 2048

// PermutePar is Permute over `threads` row blocks: pass one computes the
// output row pointers (per-block length sums, an exclusive scan of the
// block totals, then per-block fill), pass two scatters each output block
// independently — row k of the result is old row perm[k] relabeled through
// the inverse permutation and re-sorted in place. Identical output to
// Permute; the blocks are nnz-balanced so one dense stripe cannot
// serialize the scatter.
func (a *CSR) PermutePar(perm []int, threads int) *CSR {
	if threads == 1 || a.N < minParallelRows {
		return a.Permute(perm)
	}
	inv, err := checkedInverse(perm, a.N)
	if err != nil {
		//lint:ignore hotalloc cold abort: an invalid permutation never reaches the kernel loop, so this boxing runs zero times on the fast path
		panic("spmat: " + err.Error())
	}
	n := a.N
	bounds := Blocks(n, threads)
	nb := len(bounds) - 1

	rowPtr := make([]int, n+1)
	blockNNZ := make([]int, nb+1)
	parallelBlocks(bounds, func(k, lo, hi int) {
		sum := 0
		for i := lo; i < hi; i++ {
			old := perm[i]
			// Stash the row length; the scan below turns it into offsets.
			rowPtr[i+1] = a.RowPtr[old+1] - a.RowPtr[old]
			sum += rowPtr[i+1]
		}
		blockNNZ[k+1] = sum
	})
	for k := 0; k < nb; k++ {
		blockNNZ[k+1] += blockNNZ[k]
	}
	parallelBlocks(bounds, func(k, lo, hi int) {
		off := blockNNZ[k]
		for i := lo; i < hi; i++ {
			off += rowPtr[i+1]
			rowPtr[i+1] = off
		}
	})

	cols := make([]int, a.NNZ())
	var vals []float64
	if a.Val != nil {
		vals = make([]float64, a.NNZ())
	}
	// Scatter blocks balanced by output nnz, not row count.
	parallelBlocks(WeightedBlocks(rowPtr, threads), func(_, lo, hi int) {
		sorter := &colValSorter{} // per-goroutine; sort.Sort escapes it
		for k := lo; k < hi; k++ {
			old := perm[k]
			plo, phi := rowPtr[k], rowPtr[k+1]
			dst := cols[plo:phi]
			for t, j := range a.Col[a.RowPtr[old]:a.RowPtr[old+1]] {
				dst[t] = inv[j]
			}
			if vals == nil {
				sort.Ints(dst)
				continue
			}
			rv := vals[plo:phi]
			copy(rv, a.Val[a.RowPtr[old]:a.RowPtr[old+1]])
			sorter.cols, sorter.vals = dst, rv
			//lint:ignore hotalloc sorter is a pointer reused across the block's rows: storing a pointer in sort.Interface does not heap-allocate
			sort.Sort(sorter)
		}
	})
	return &CSR{N: n, RowPtr: rowPtr, Col: cols, Val: vals}
}

// DegreesPar is Degrees over nnz-balanced row blocks.
func (a *CSR) DegreesPar(threads int) []int {
	if threads == 1 || a.N < minParallelRows {
		return a.Degrees()
	}
	deg := make([]int, a.N)
	parallelBlocks(WeightedBlocks(a.RowPtr, threads), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			d := 0
			for _, j := range a.Row(i) {
				if j != i {
					d++
				}
			}
			deg[i] = d
		}
	})
	return deg
}

// Stats is the ordering-quality summary StatsUnder computes: the serial
// Bandwidth, Profile, FillProxy and Wavefront of PAPᵀ.
type Stats struct {
	Bandwidth int
	Profile   int64
	FillProxy int64
	Wavefront WavefrontStats
}

// StatsUnder returns the statistics of PAPᵀ for perm in the symrcm
// convention of Permute (nil means the natural order) without building it.
// Row k = inv[i] of PAPᵀ holds the relabelled columns inv[j] of row i of A,
// so one O(n + nnz) pass over nnz-balanced row blocks of A needs per row
// only the first column f_k = min(k, inv[j]) (§II-A), the largest inv[j] − k
// and the count of inv[j] > k; the blocks reduce integer partials. Only the
// wavefront scan stays sequential in row order of PAPᵀ, so every field —
// Mean and RMS bit for bit — equals the serial methods on Permute(perm) at
// any thread count. threads < 1 selects GOMAXPROCS. A malformed perm panics
// with the ValidatePerm diagnosis, like Permute.
func (a *CSR) StatsUnder(perm []int, threads int) Stats {
	n := a.N
	if n == 0 {
		return Stats{}
	}
	var inv []int
	if perm != nil {
		var err error
		if inv, err = checkedInverse(perm, n); err != nil {
			//lint:ignore hotalloc cold abort: an invalid permutation never reaches the kernel loop, so this boxing runs zero times on the fast path
			panic("spmat: " + err.Error())
		}
	}
	if n < minParallelRows {
		threads = 1
	}
	type partial struct {
		bw            int
		profile, fill int64
	}
	bounds := WeightedBlocks(a.RowPtr, threads)
	part := make([]partial, len(bounds)-1)
	first := make([]int, n)
	parallelBlocks(bounds, func(b, lo, hi int) {
		var p partial
		for i := lo; i < hi; i++ {
			k := i
			if inv != nil {
				k = inv[i]
			}
			f, u := k, int64(0)
			for _, j := range a.Col[a.RowPtr[i]:a.RowPtr[i+1]] {
				if inv != nil {
					j = inv[j]
				}
				if j > k {
					u++
					p.bw = max(p.bw, j-k)
				} else if j < f {
					f = j
				}
			}
			first[k] = f
			p.bw = max(p.bw, k-f)
			p.profile += int64(k - f)
			p.fill += u * (u - 1) / 2
		}
		part[b] = p
	})
	var st Stats
	for _, p := range part {
		st.Bandwidth = max(st.Bandwidth, p.bw)
		st.Profile += p.profile
		st.FillProxy += p.fill
	}
	st.Wavefront = wavefront(first)
	return st
}
