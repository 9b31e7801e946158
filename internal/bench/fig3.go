package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/spmat"
)

// Fig3Row is one row of the matrix-suite table (Fig. 3): structural
// information plus pre/post-RCM bandwidth and the pseudo-diameter.
type Fig3Row struct {
	Name        string
	N           int
	NNZ         int
	BWPre       int
	BWPost      int
	ProfilePre  int64
	ProfilePost int64
	PseudoDiam  int
	// Paper-reported reference values for the original matrix.
	PaperN      int
	PaperNNZ    int64
	PaperBWPre  int
	PaperBWPost int
	PaperDiam   int
}

// RunFig3 regenerates the suite table of Fig. 3 on the synthetic analogs:
// dimensions, nonzeros, bandwidth before and after RCM, and the
// pseudo-diameter found by the ordering.
func RunFig3(cfg Config) []Fig3Row {
	var rows []Fig3Row
	for _, e := range graphgen.Suite() {
		if !cfg.wants(e.Name) {
			continue
		}
		a := e.Build(cfg.scale())
		ord := core.Sequential(a)
		pre, post := a.StatsUnder(nil, 1), a.StatsUnder(ord.Perm, 1)
		rows = append(rows, Fig3Row{
			Name: e.Name, N: a.N, NNZ: a.NNZ(),
			BWPre: pre.Bandwidth, BWPost: post.Bandwidth,
			ProfilePre: pre.Profile, ProfilePost: post.Profile,
			PseudoDiam: ord.PseudoDiameter,
			PaperN:     e.PaperN, PaperNNZ: e.PaperNNZ,
			PaperBWPre: e.PaperBWPre, PaperBWPost: e.PaperBWPost, PaperDiam: e.PaperDiam,
		})
	}

	w := cfg.out()
	fmt.Fprintf(w, "Fig 3: matrix suite (synthetic analogs at scale %d; paper values in parens)\n", cfg.scale())
	fmt.Fprintf(w, "%-17s %9s %10s %10s %10s %9s %22s\n", "name", "n", "nnz", "bw-pre", "bw-post", "pdiam", "paper bw pre->post")
	hr(w, 96)
	for _, r := range rows {
		fmt.Fprintf(w, "%-17s %9d %10d %10d %10d %9d %10d->%-11d (pdiam %d)\n",
			r.Name, r.N, r.NNZ, r.BWPre, r.BWPost, r.PseudoDiam,
			r.PaperBWPre, r.PaperBWPost, r.PaperDiam)
	}
	return rows
}

// SpyPair renders before/after ASCII spy plots for one suite matrix — the
// reproduction's version of the spy-plot column of Fig. 3.
func SpyPair(cfg Config, name string) (before, after string, err error) {
	e := graphgen.SuiteByName(name)
	if e == nil {
		return "", "", fmt.Errorf("bench: unknown suite matrix %q", name)
	}
	a := e.Build(cfg.scale())
	ord := core.Sequential(a)
	p := a.Permute(ord.Perm)
	return a.SpyString(40, 20), p.SpyString(40, 20), nil
}

// SummarizeSuite returns the structural summaries of the analog suite
// (used by tests and the CLI's info command).
func SummarizeSuite(cfg Config) []spmat.Info {
	var infos []spmat.Info
	for _, e := range graphgen.Suite() {
		if !cfg.wants(e.Name) {
			continue
		}
		infos = append(infos, spmat.Summarize(e.Name, e.Build(cfg.scale())))
	}
	return infos
}
