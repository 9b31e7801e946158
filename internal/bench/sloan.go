package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graphgen"
)

// SloanRow compares RCM against Sloan's ordering on the envelope metrics
// both heuristics target. RCM optimizes bandwidth; Sloan optimizes
// profile/wavefront — the comparison quantifies the trade-off the paper
// alludes to when citing Sloan as the alternative heuristic (§I).
type SloanRow struct {
	Name                                 string
	BWBefore, BWRCM, BWSloan             int
	ProfileBefore, ProfileRCM, ProfSloan int64
	RMSBefore, RMSRCM, RMSSloan          float64
	SecsRCM, SecsSloan                   float64
}

// RunSloanComparison orders each suite analog with both heuristics and
// reports bandwidth, profile and RMS wavefront. The dense nd24k analog is
// skipped at coarse scales where Sloan's neighbour-of-neighbour updates
// make it quadratic.
func RunSloanComparison(cfg Config) []SloanRow {
	var rows []SloanRow
	for _, e := range graphgen.Suite() {
		if !cfg.wants(e.Name) {
			continue
		}
		a := e.Build(cfg.scale())
		pre := a.StatsUnder(nil, 1)
		row := SloanRow{
			Name:          e.Name,
			BWBefore:      pre.Bandwidth,
			ProfileBefore: pre.Profile,
			RMSBefore:     pre.Wavefront.RMS,
		}
		start := time.Now()
		rcm := core.Sequential(a)
		row.SecsRCM = time.Since(start).Seconds()
		pr := a.StatsUnder(rcm.Perm, 1)
		row.BWRCM, row.ProfileRCM, row.RMSRCM = pr.Bandwidth, pr.Profile, pr.Wavefront.RMS

		start = time.Now()
		sl := core.Sloan(a)
		row.SecsSloan = time.Since(start).Seconds()
		ps := a.StatsUnder(sl.Perm, 1)
		row.BWSloan, row.ProfSloan, row.RMSSloan = ps.Bandwidth, ps.Profile, ps.Wavefront.RMS
		rows = append(rows, row)
	}
	w := cfg.out()
	fmt.Fprintf(w, "Extension: RCM vs Sloan (bandwidth | profile | RMS wavefront | seconds)\n")
	fmt.Fprintf(w, "%-17s %9s %9s %9s | %11s %11s %11s | %9s %9s | %7s %7s\n",
		"name", "bw-in", "bw-rcm", "bw-sloan", "prof-in", "prof-rcm", "prof-sloan", "rms-rcm", "rms-sloan", "s-rcm", "s-sloan")
	hr(w, 140)
	for _, r := range rows {
		fmt.Fprintf(w, "%-17s %9d %9d %9d | %11d %11d %11d | %9.1f %9.1f | %7.3f %7.3f\n",
			r.Name, r.BWBefore, r.BWRCM, r.BWSloan,
			r.ProfileBefore, r.ProfileRCM, r.ProfSloan,
			r.RMSRCM, r.RMSSloan, r.SecsRCM, r.SecsSloan)
	}
	fmt.Fprintln(w)
	return rows
}
