package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/graphgen"
)

// Table2Row compares the shared-memory baseline against the distributed
// implementation on one matrix, as in Table II of the paper: ordering
// quality (bandwidth) plus runtimes at growing thread counts.
type Table2Row struct {
	Name string
	N    int
	// SharedBW and DistBW are the post-RCM bandwidths of the two
	// implementations (identical by the deterministic contract — the
	// paper's SpMP column differs from its distributed column because
	// SpMP breaks ties differently).
	SharedBW int
	DistBW   int
	// SharedSecs are measured wall-clock seconds of the shared-memory
	// RCM at 1, 2, ... threads (bounded by the host's cores).
	SharedThreads []int
	SharedSecs    []float64
	// DistModeledSecs are modelled seconds of the distributed RCM at the
	// paper's 1/6/24-core points (1 thread; 6 threads; 4 procs × 6).
	DistCores       []int
	DistModeledSecs []float64
}

// RunTable2 regenerates Table II: shared-memory (SpMP-style) RCM runtime
// and bandwidth vs the distributed implementation on a single node.
// Shared-memory numbers are real wall-clock measurements on this host (the
// thread counts are clamped to the available cores); distributed numbers
// are modelled seconds on the single-node core counts the paper uses.
func RunTable2(cfg Config) []Table2Row {
	maxT := runtime.GOMAXPROCS(0)
	threads := []int{1}
	if maxT >= 2 {
		threads = append(threads, 2)
	}
	if maxT >= 4 {
		threads = append(threads, 4)
	}
	distCfgs := []CoreConfig{
		{Cores: 1, Procs: 1, Threads: 1},
		{Cores: 6, Procs: 1, Threads: 6},
		{Cores: 24, Procs: 4, Threads: 6},
	}

	var rows []Table2Row
	for _, e := range graphgen.Suite() {
		if !cfg.wants(e.Name) {
			continue
		}
		a := e.Build(cfg.scale())
		row := Table2Row{Name: e.Name, N: a.N, SharedThreads: threads}
		var sharedPerm []int
		for _, t := range threads {
			start := time.Now()
			ord := core.Shared(a, t)
			row.SharedSecs = append(row.SharedSecs, time.Since(start).Seconds())
			sharedPerm = ord.Perm
		}
		row.SharedBW = a.StatsUnder(sharedPerm, 1).Bandwidth
		for _, cc := range distCfgs {
			pt := runScalePoint(a, cc, cfg.model(), core.SortFull, cfg.optionsFor(a))
			row.DistCores = append(row.DistCores, cc.Cores)
			row.DistModeledSecs = append(row.DistModeledSecs, pt.Total)
			row.DistBW = pt.Bandwidth
		}
		rows = append(rows, row)
	}

	w := cfg.out()
	fmt.Fprintf(w, "Table II: shared-memory (SpMP-style) vs distributed RCM (scale %d)\n", cfg.scale())
	fmt.Fprintf(w, "%-17s %9s %9s  %-24s  %-30s\n", "name", "shm bw", "dist bw", "shm wall secs (threads)", "dist modelled secs (cores)")
	hr(w, 100)
	for _, r := range rows {
		shm := ""
		for i, t := range r.SharedThreads {
			shm += fmt.Sprintf("%0.3f(%dt) ", r.SharedSecs[i], t)
		}
		dist := ""
		for i, c := range r.DistCores {
			dist += fmt.Sprintf("%0.3f(%dc) ", r.DistModeledSecs[i], c)
		}
		fmt.Fprintf(w, "%-17s %9d %9d  %-24s  %-30s\n", r.Name, r.SharedBW, r.DistBW, shm, dist)
	}
	fmt.Fprintln(w)

	// The §V-C argument: running a shared-memory ordering on an
	// already-distributed matrix first requires gathering the structure
	// to one node — the paper measures >9 s to gather nlpkkt240 from
	// 1024 cores, 3× the cost of ordering it in place. The gather cost
	// scales with β·nnz while the in-place ordering cost is
	// latency-dominated, so at analog sizes the gather looks cheap; the
	// paper-nnz column shows the claim re-emerging at full scale.
	fmt.Fprintf(w, "Gather-to-one-node vs ordering in place (modelled, 169 procs):\n")
	fmt.Fprintf(w, "%-17s %16s %18s %22s\n", "name", "gather analog(s)", "order analog (s)", "gather paper-nnz (s)")
	hr(w, 78)
	for _, r := range rows {
		e := graphgen.SuiteByName(r.Name)
		if e == nil {
			continue
		}
		a := e.Build(cfg.scale())
		gather := GatherCost(a.NNZ(), 169, cfg)
		gatherPaper := GatherCost(int(e.PaperNNZ), 169, cfg)
		pt := runScalePoint(a, CoreConfig{Cores: 1014, Procs: 169, Threads: 6}, cfg.model(), core.SortFull, cfg.optionsFor(a))
		fmt.Fprintf(w, "%-17s %16.4f %18.4f %22.4f\n", r.Name, gather, pt.Total, gatherPaper)
	}
	fmt.Fprintln(w)
	return rows
}

// GatherCost models the cost the paper highlights in §V-C: gathering a
// distributed matrix onto one node before running a shared-memory ordering.
// Every remote rank sends its share of the structure to the root; the root
// receives (p-1)/p of nnz index words. The paper measures >9 s for
// nlpkkt240 from 1024 cores — about 3× the cost of just ordering it in
// place with the distributed algorithm.
func GatherCost(nnz int, procs int, cfg Config) float64 {
	if procs <= 1 {
		return 0
	}
	m := cfg.model()
	words := int64(nnz) * int64(procs-1) / int64(procs)
	return secs(m.P2PCost(words) + float64(procs-1)*m.AlphaNs)
}
