package rcm

import (
	"fmt"

	"repro/internal/graphgen"
	"repro/internal/spmat"
)

// The generators below re-export package graphgen: the synthetic analogs of
// the paper's matrix suite plus the classic test graphs, all as ready-made
// Matrix values. Generated matrices carry Laplacian-like values, so they
// feed both the ordering pipeline and the numeric solvers.

// Grid2D returns the 5-point stencil on an nx×ny grid.
func Grid2D(nx, ny int) *Matrix { return wrap(graphgen.Grid2D(nx, ny)) }

// Grid2D9 returns the 9-point (Moore) stencil on an nx×ny grid.
func Grid2D9(nx, ny int) *Matrix { return wrap(graphgen.Grid2D9(nx, ny)) }

// Grid3D returns a 3D stencil on an nx×ny×nz grid: the 7-point stencil
// when faceOnly is true, the 27-point stencil otherwise, with the given
// neighbourhood radius.
func Grid3D(nx, ny, nz, radius int, faceOnly bool) *Matrix {
	return wrap(graphgen.Grid3D(nx, ny, nz, radius, faceOnly))
}

// RandomRegular returns a random graph where every vertex has the given
// degree, the low-diameter high-randomness end of the suite.
func RandomRegular(n, deg int, seed int64) *Matrix {
	return wrap(graphgen.RandomRegular(n, deg, seed))
}

// KKT returns the KKT-structured saddle-point matrix [[H, Bᵀ], [B, D]]
// built from the Hessian-like matrix h, the analog of optimization
// matrices like nlpkkt240.
func KKT(h *Matrix) *Matrix { return wrap(graphgen.KKT(h.csr)) }

// Path returns the path graph on n vertices, the extreme high-diameter
// case.
func Path(n int) *Matrix { return wrap(graphgen.Path(n)) }

// Star returns the star graph on n vertices, the extreme low-diameter
// case.
func Star(n int) *Matrix { return wrap(graphgen.Star(n)) }

// Complete returns the complete graph on n vertices.
func Complete(n int) *Matrix { return wrap(graphgen.Complete(n)) }

// Disconnected returns the block-diagonal union of the given graphs, for
// exercising multi-component orderings.
func Disconnected(parts ...*Matrix) *Matrix {
	csrs := make([]*spmat.CSR, len(parts))
	for i, p := range parts {
		csrs[i] = p.csr
	}
	return wrap(graphgen.Disconnected(csrs...))
}

// MultiComponent returns a component-heavy graph: one giant
// giantSide×giantSide grid component (skipped when giantSide < 2) plus
// smallCount small components of random shape and size 1..smallMax, with
// the vertex ids scrambled so components interleave. The stress case for
// WithComponentScheduling.
func MultiComponent(giantSide, smallCount, smallMax int, seed int64) *Matrix {
	return wrap(graphgen.MultiComponent(giantSide, smallCount, smallMax, seed))
}

// RMAT returns an RMAT power-law graph (2^scale vertices, ~edgeFactor
// edges per vertex), the scale-free stress case.
func RMAT(scale, edgeFactor int, seed int64) *Matrix {
	return wrap(graphgen.RMAT(scale, edgeFactor, seed))
}

// Thermal2 returns the scrambled 2D thermal-problem analog used by the
// Fig. 1 solver experiment, at the given downscale factor.
func Thermal2(scale int) *Matrix { return wrap(graphgen.Thermal2(scale)) }

// Scramble applies a seeded random symmetric permutation QAQᵀ, destroying
// any natural banded structure — the "original ordering" of Fig. 3 and the
// load-balancing permutation of §IV-A. It returns the scrambled matrix and
// the permutation used (symrcm convention).
func Scramble(a *Matrix, seed int64) (*Matrix, []int) {
	s, perm := graphgen.Scramble(a.csr, seed)
	return wrap(s), perm
}

// SuiteEntry is one matrix of the paper's nine-matrix evaluation suite
// (Fig. 3): the synthetic analog generator together with the
// paper-reported reference numbers.
type SuiteEntry struct {
	Name        string
	Description string
	// PaperN, PaperNNZ, PaperBWPre, PaperBWPost and PaperDiam are the
	// values Fig. 3 reports for the real SuiteSparse matrix.
	PaperN      int
	PaperNNZ    int64
	PaperBWPre  int
	PaperBWPost int
	PaperDiam   int
	build       func(scale int) *Matrix
}

// Build generates the scrambled analog at the given downscale factor
// (1 = full analog; larger scales shrink the linear dimensions
// proportionally for fast experiments).
func (e *SuiteEntry) Build(scale int) *Matrix { return e.build(scale) }

// Suite returns the nine-matrix analog suite in the order of Fig. 3.
func Suite() []SuiteEntry {
	entries := graphgen.Suite()
	out := make([]SuiteEntry, len(entries))
	for i := range entries {
		out[i] = newSuiteEntry(entries[i])
	}
	return out
}

// SuiteByName returns the suite entry with the given (case-insensitive)
// name, or an error naming the valid choices.
func SuiteByName(name string) (*SuiteEntry, error) {
	e := graphgen.SuiteByName(name)
	if e == nil {
		valid := ""
		for i, s := range graphgen.Suite() {
			if i > 0 {
				valid += ", "
			}
			valid += s.Name
		}
		return nil, fmt.Errorf("rcm: unknown suite matrix %q (have %s)", name, valid)
	}
	pub := newSuiteEntry(*e)
	return &pub, nil
}

func newSuiteEntry(e graphgen.SuiteEntry) SuiteEntry {
	build := e.Build
	return SuiteEntry{
		Name:        e.Name,
		Description: e.Description,
		PaperN:      e.PaperN,
		PaperNNZ:    e.PaperNNZ,
		PaperBWPre:  e.PaperBWPre,
		PaperBWPost: e.PaperBWPost,
		PaperDiam:   e.PaperDiam,
		build:       func(scale int) *Matrix { return wrap(build(scale)) },
	}
}
