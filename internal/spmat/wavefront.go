package spmat

import "math"

// Wavefront metrics of an ordered matrix. The i-th wavefront is the number
// of rows j ≥ i whose first nonzero column f_j is ≤ i — the size of the
// active front a frontal factorization would carry at step i. These are the
// objectives Sloan's algorithm optimizes and the quantities Karantasis et
// al. (the paper's reference [8]) report alongside bandwidth.
type WavefrontStats struct {
	// Max is the maximum wavefront over all steps.
	Max int
	// Mean is the average wavefront.
	Mean float64
	// RMS is the root-mean-square wavefront, the cost proxy for frontal
	// solvers (work ~ Σ wf(i)²).
	RMS float64
}

// Wavefront computes the wavefront statistics of the matrix in its current
// ordering. Rows without nonzeros contribute a front of one (themselves).
// O(n + nnz).
func (a *CSR) Wavefront() WavefrontStats {
	first := make([]int, a.N)
	for j := range first {
		first[j] = j
		if row := a.Row(j); len(row) > 0 && row[0] < j {
			first[j] = row[0]
		}
	}
	return wavefront(first)
}

// wavefront scans the fronts of an ordering given first[j] = min(j, f_j):
// row j is active at steps i in [first[j], j]. The interval counts
// accumulate in a difference array, scanned in row order.
func wavefront(first []int) WavefrontStats {
	n := len(first)
	if n == 0 {
		return WavefrontStats{}
	}
	diff := make([]int, n+1)
	for j, f := range first {
		diff[f]++
		diff[j+1]--
	}
	var st WavefrontStats
	cur := 0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		cur += diff[i]
		if cur > st.Max {
			st.Max = cur
		}
		sum += float64(cur)
		sumSq += float64(cur) * float64(cur)
	}
	st.Mean = sum / float64(n)
	st.RMS = math.Sqrt(sumSq / float64(n))
	return st
}
