package spvec

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/psort"
)

// Test-only helpers: the deep copy, the sortedness and index-sort checks
// and the comparison-based tuple order the kernels are tested against.

// Clone returns a deep copy.
func (x *Sp) Clone() *Sp {
	return &Sp{Ind: append([]int(nil), x.Ind...), Val: append([]int64(nil), x.Val...)}
}

// IsSorted reports whether indices are strictly increasing.
func (x *Sp) IsSorted() bool {
	for i := 1; i < len(x.Ind); i++ {
		if x.Ind[i] <= x.Ind[i-1] {
			return false
		}
	}
	return true
}

// SortByInd sorts the entries by index with a linear-time keyed sort.
func (x *Sp) SortByInd() {
	type pair struct {
		i int
		v int64
	}
	ps := make([]pair, len(x.Ind))
	for k := range x.Ind {
		ps[k] = pair{x.Ind[k], x.Val[k]}
	}
	psort.Keyed(ps, func(p pair) uint64 { return uint64(p.i) }, 1)
	for k := range ps {
		x.Ind[k] = ps[k].i
		x.Val[k] = ps[k].v
	}
}

// TupleLess is the lexicographic (parent, degree, vertex) order.
func TupleLess(a, b Tuple) bool {
	if a.Parent != b.Parent {
		return a.Parent < b.Parent
	}
	if a.Degree != b.Degree {
		return a.Degree < b.Degree
	}
	return a.Vertex < b.Vertex
}

func TestSpBasics(t *testing.T) {
	x := &Sp{}
	if x.Len() != 0 {
		t.Error("zero value not empty")
	}
	x.Append(3, 30)
	x.Append(7, 70)
	if x.Len() != 2 || !x.IsSorted() {
		t.Errorf("after append: %+v", x)
	}
	c := x.Clone()
	c.Val[0] = -1
	if x.Val[0] != 30 {
		t.Error("clone aliases")
	}
	x.Reset()
	if x.Len() != 0 {
		t.Error("reset failed")
	}
}

func TestSingle(t *testing.T) {
	x := Single(5, 50)
	if x.Len() != 1 || x.Ind[0] != 5 || x.Val[0] != 50 {
		t.Errorf("single = %+v", x)
	}
}

func TestIsSorted(t *testing.T) {
	if !(&Sp{Ind: []int{1, 2, 5}}).IsSorted() {
		t.Error("sorted reported unsorted")
	}
	if (&Sp{Ind: []int{1, 1}}).IsSorted() {
		t.Error("duplicate indices reported sorted")
	}
	if (&Sp{Ind: []int{2, 1}}).IsSorted() {
		t.Error("unsorted reported sorted")
	}
}

func TestSortByInd(t *testing.T) {
	x := &Sp{Ind: []int{5, 1, 3}, Val: []int64{50, 10, 30}}
	x.SortByInd()
	if !reflect.DeepEqual(x.Ind, []int{1, 3, 5}) || !reflect.DeepEqual(x.Val, []int64{10, 30, 50}) {
		t.Errorf("sorted = %+v", x)
	}
}

func TestInd(t *testing.T) {
	x := &Sp{Ind: []int{2, 4}, Val: []int64{1, 1}}
	if got := Ind(x); !reflect.DeepEqual(got, []int{2, 4}) {
		t.Errorf("IND = %v", got)
	}
}

func TestSelect(t *testing.T) {
	x := &Sp{Ind: []int{0, 1, 2}, Val: []int64{10, 11, 12}}
	y := []int64{-1, 5, -1}
	got := Select(x, y, func(v int64) bool { return v == -1 })
	if !reflect.DeepEqual(got.Ind, []int{0, 2}) || !reflect.DeepEqual(got.Val, []int64{10, 12}) {
		t.Errorf("select = %+v", got)
	}
	// Input untouched.
	if x.Len() != 3 {
		t.Error("select mutated input")
	}
}

func TestSetDenseAndGatherDense(t *testing.T) {
	y := NewDense(4, -1)
	x := &Sp{Ind: []int{1, 3}, Val: []int64{10, 30}}
	SetDense(y, x)
	if !reflect.DeepEqual(y, []int64{-1, 10, -1, 30}) {
		t.Errorf("SET = %v", y)
	}
	z := &Sp{Ind: []int{1, 3}, Val: []int64{0, 0}}
	GatherDense(z, y)
	if !reflect.DeepEqual(z.Val, []int64{10, 30}) {
		t.Errorf("gather = %v", z.Val)
	}
}

func TestReduce(t *testing.T) {
	y := []int64{9, 4, 7, 2}
	x := &Sp{Ind: []int{0, 2, 3}, Val: []int64{1, 1, 1}}
	min := func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}
	if got := Reduce(x, y, 1<<62, min); got != 2 {
		t.Errorf("reduce min = %d", got)
	}
	if got := Reduce(&Sp{}, y, 1<<62, min); got != 1<<62 {
		t.Errorf("empty reduce = %d, want identity", got)
	}
}

func TestArgMinBy(t *testing.T) {
	deg := []int64{5, 3, 3, 9}
	x := &Sp{Ind: []int{0, 1, 2, 3}, Val: []int64{0, 0, 0, 0}}
	ind, k := ArgMinBy(x, deg)
	if ind != 1 || k != 3 {
		t.Errorf("argmin = (%d,%d), want vertex 1 (tie broken by id)", ind, k)
	}
	if ind, _ := ArgMinBy(&Sp{}, deg); ind != -1 {
		t.Errorf("empty argmin = %d", ind)
	}
}

func TestTuplesAndSort(t *testing.T) {
	deg := []int64{2, 9, 1}
	x := &Sp{Ind: []int{0, 1, 2}, Val: []int64{7, 5, 7}}
	ts := TuplesOf(x, deg)
	SortTuples(ts)
	// Parent 5 first; then parent 7 ordered by degree (vertex 2 deg 1
	// before vertex 0 deg 2).
	want := []int{1, 2, 0}
	for i, tu := range ts {
		if tu.Vertex != want[i] {
			t.Fatalf("sorted order %v, want %v", ts, want)
		}
	}
}

func TestTupleLessTieBreaking(t *testing.T) {
	a := Tuple{1, 1, 1}
	b := Tuple{1, 1, 2}
	if !TupleLess(a, b) || TupleLess(b, a) {
		t.Error("vertex tie-break wrong")
	}
	if TupleLess(a, a) {
		t.Error("irreflexive violated")
	}
}

func TestQuickSortTuplesMatchesLexicographic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(60)
		ts := make([]Tuple, n)
		for i := range ts {
			ts[i] = Tuple{Parent: int64(r.Intn(5)), Degree: int64(r.Intn(4)), Vertex: i}
		}
		ref := append([]Tuple(nil), ts...)
		sort.Slice(ref, func(a, b int) bool {
			if ref[a].Parent != ref[b].Parent {
				return ref[a].Parent < ref[b].Parent
			}
			if ref[a].Degree != ref[b].Degree {
				return ref[a].Degree < ref[b].Degree
			}
			return ref[a].Vertex < ref[b].Vertex
		})
		SortTuples(ts)
		if len(ts) != len(ref) {
			return false
		}
		for i := range ts {
			if ts[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFillAndNewDense(t *testing.T) {
	y := NewDense(3, 7)
	if !reflect.DeepEqual(y, []int64{7, 7, 7}) {
		t.Errorf("NewDense = %v", y)
	}
	Fill(y, 0)
	if !reflect.DeepEqual(y, []int64{0, 0, 0}) {
		t.Errorf("Fill = %v", y)
	}
	if got := NewDense(0, 5); len(got) != 0 {
		t.Error("empty dense")
	}
}
