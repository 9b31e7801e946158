package spmat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWavefrontDiagonal(t *testing.T) {
	a := tri(4, [2]int{0, 0}, [2]int{1, 1}, [2]int{2, 2}, [2]int{3, 3})
	wf := a.Wavefront()
	if wf.Max != 1 || wf.Mean != 1 || wf.RMS != 1 {
		t.Errorf("diagonal wavefront = %+v", wf)
	}
}

func TestWavefrontEmpty(t *testing.T) {
	wf := FromCoords(0, nil, true).Wavefront()
	if wf.Max != 0 || wf.Mean != 0 {
		t.Errorf("empty wavefront = %+v", wf)
	}
}

func TestWavefrontArrow(t *testing.T) {
	// Row 3 active from step 0: fronts are {0,3},{1,3},{2,3},{3} → sizes
	// 2,2,2,1.
	a := tri(4, [2]int{0, 0}, [2]int{1, 1}, [2]int{2, 2}, [2]int{3, 0}, [2]int{3, 3})
	wf := a.Wavefront()
	if wf.Max != 2 {
		t.Errorf("max = %d", wf.Max)
	}
	if math.Abs(wf.Mean-7.0/4) > 1e-12 {
		t.Errorf("mean = %f", wf.Mean)
	}
	wantRMS := math.Sqrt((4 + 4 + 4 + 1) / 4.0)
	if math.Abs(wf.RMS-wantRMS) > 1e-12 {
		t.Errorf("rms = %f, want %f", wf.RMS, wantRMS)
	}
}

// TestStatsUnderPathWavefront: a path keeps its fronts of two under the
// identity and under its reversal (the RCM ordering of a path).
func TestStatsUnderPathWavefront(t *testing.T) {
	var coords [][2]int
	for v := 0; v < 10; v++ {
		coords = append(coords, [2]int{v, v})
		if v+1 < 10 {
			coords = append(coords, [2]int{v, v + 1}, [2]int{v + 1, v})
		}
	}
	a := tri(10, coords...)
	rev := make([]int, 10)
	for k := range rev {
		rev[k] = 9 - k
	}
	for _, perm := range [][]int{Identity(10), rev} {
		if wf := a.StatsUnder(perm, 1).Wavefront; wf.Max != 2 {
			t.Errorf("path wavefront max under %v = %d", perm, wf.Max)
		}
	}
}

func TestWavefrontTridiagonal(t *testing.T) {
	// Each row j>0 active at steps j-1 and j: fronts 2,2,2,1 for n=4.
	a := tri(4,
		[2]int{0, 0}, [2]int{0, 1},
		[2]int{1, 0}, [2]int{1, 1}, [2]int{1, 2},
		[2]int{2, 1}, [2]int{2, 2}, [2]int{2, 3},
		[2]int{3, 2}, [2]int{3, 3})
	wf := a.Wavefront()
	if wf.Max != 2 {
		t.Errorf("max = %d", wf.Max)
	}
}

func TestWavefrontRowsWithoutDiagonal(t *testing.T) {
	// A row whose first nonzero is past the diagonal still fronts itself.
	a := tri(3, [2]int{0, 2}, [2]int{2, 0})
	wf := a.Wavefront()
	if wf.Max < 1 {
		t.Errorf("wavefront = %+v", wf)
	}
}

func TestQuickWavefrontBounds(t *testing.T) {
	// 1 ≤ wf(i) ≤ n; Mean ≤ Max; RMS between Mean and Max; and the mean
	// relates to the profile: Σwf = profile + n when all f_j ≤ j.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		var es []Coord
		for k := 0; k < 3*n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			es = append(es, Coord{i, j, 1}, Coord{j, i, 1})
		}
		for v := 0; v < n; v++ {
			es = append(es, Coord{v, v, 1})
		}
		a := FromCoords(n, es, true)
		wf := a.Wavefront()
		if wf.Max < 1 || wf.Max > n {
			return false
		}
		if wf.Mean > float64(wf.Max)+1e-9 || wf.RMS > float64(wf.Max)+1e-9 || wf.RMS < wf.Mean-1e-9 {
			return false
		}
		wantSum := float64(a.Profile() + int64(n))
		return math.Abs(wf.Mean*float64(n)-wantSum) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
