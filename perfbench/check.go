package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/rcm"
	"repro/rcm/service"
)

// output is one completed operation. It is checked after the timed phases.
type output struct {
	ref     refKey
	leg     string // order-embedded leg
	lat     time.Duration
	done    time.Time     // completion
	cpu     time.Duration // process CPU time at completion
	fail    string        // transport, status or cache-state failure
	res     *rcm.Result
	raw     []byte // serving: the response body
	bodyLen int
	// Filled by check.
	perm          []int
	before, after rcm.Stats
}

// verdict is the correctness gate's result over all outputs of a run.
type verdict struct {
	failed, incorrect int
	firstProblem      string
}

func (v *verdict) note(problem string) {
	if v.firstProblem == "" {
		v.firstProblem = problem
	}
}

// check decodes every output and compares each permutation with an
// independent recomputation of the same matrix and options (computed once
// per distinct refKey on workers goroutines). Failed operations count in
// failed; wrong or invalid permutations count in both failed and incorrect.
func check(in []input, outs []output, workers int) verdict {
	var v verdict
	var keys []refKey
	seen := map[refKey]bool{}
	for i := range outs {
		o := &outs[i]
		if o.fail == "" && o.raw != nil {
			var r service.Response
			if err := json.Unmarshal(o.raw, &r); err != nil {
				o.fail = "decoding response: " + err.Error()
			} else {
				o.perm, o.before, o.after = r.Perm, r.Before, r.After
			}
			o.raw = nil
		} else if o.fail == "" {
			o.perm, o.before, o.after = o.res.Perm, o.res.Before, o.res.After
		}
		if o.fail != "" {
			v.failed++
			v.note(fmt.Sprintf("%s: %s", in[o.ref.input].name, o.fail))
			continue
		}
		if !seen[o.ref] {
			seen[o.ref] = true
			keys = append(keys, o.ref)
		}
	}

	refs := make(map[refKey]uint64, len(keys))
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan refKey)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				h, err := reference(in, k)
				mu.Lock()
				if err != nil {
					v.note(err.Error())
				} else {
					refs[k] = h
				}
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		work <- k
	}
	close(work)
	wg.Wait()

	for i := range outs {
		o := &outs[i]
		if o.fail != "" {
			continue
		}
		want, ok := refs[o.ref]
		switch {
		case !rcm.IsPermutation(o.perm) || len(o.perm) != in[o.ref.input].a.N():
			o.fail = "not a permutation of the matrix"
		case !ok || permHash(o.perm) != want:
			o.fail = "permutation differs from the reference ordering"
		default:
			continue
		}
		v.failed++
		v.incorrect++
		v.note(fmt.Sprintf("%s %s start=%d: %s", in[o.ref.input].name, o.leg, o.ref.start, o.fail))
	}
	return v
}

// quality returns the geometric means of After/Before profile and
// bandwidth over the distinct orderings among the correct outputs.
func quality(outs []output) (profile, bandwidth float64) {
	seen := map[refKey]bool{}
	var lp, lb float64
	n := 0
	for _, o := range outs {
		if o.fail != "" || seen[o.ref] {
			continue
		}
		seen[o.ref] = true
		lp += math.Log(float64(o.after.Profile) / float64(o.before.Profile))
		lb += math.Log(float64(o.after.Bandwidth) / float64(o.before.Bandwidth))
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return math.Exp(lp / float64(n)), math.Exp(lb / float64(n))
}

// percentile is the nearest-rank percentile of the latencies, in ms.
func percentile(lat []time.Duration, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	return ms(s[max(rank, 0)])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// roundStats are the timing figures of a phase: medians over its request
// rounds, and for the latencies over windows of whole rounds.
type roundStats struct {
	rounds   int
	rate     float64 // operations per second
	cpuMs    float64 // process CPU (user + system) per operation, in ms
	windows  int     // latency windows
	p50, p90 float64 // nearest-rank latency percentiles, in ms
	// The per-round and per-window figures the medians are taken over.
	rates, cpus, p50s, p90s []float64
}

// perRound splits a phase that started at t0, with the process at CPU time
// cpu0, into consecutive chunks of n completions (one request round, so
// every chunk has the round's mix). It returns the medians over the chunks
// of the throughput and the CPU per operation, and the medians of the
// latency percentiles over windows of whole chunks that hold at least
// minSamples operations each (the last window takes the remainder), so
// that a window's p90 has a tenth of them beyond it. Medians over rounds
// and windows keep a burst of interference on the host out of the figures.
func perRound(outs []output, t0 time.Time, cpu0 time.Duration, n, minSamples int) roundStats {
	s := append([]output(nil), outs...)
	sort.Slice(s, func(i, j int) bool { return s[i].done.Before(s[j].done) })
	n = min(n, len(s))
	var st roundStats
	prev, prevCPU := t0, cpu0
	for end := n; end <= len(s); end += n {
		last := s[end-1]
		st.rates = append(st.rates, float64(n)/last.done.Sub(prev).Seconds())
		st.cpus = append(st.cpus, ms(last.cpu-prevCPU)/float64(n))
		prev, prevCPU = last.done, last.cpu
	}
	w := max(1, (minSamples+n-1)/n) * n
	st.windows = max(1, len(s)/w)
	for i := range st.windows {
		end := (i + 1) * w
		if i == st.windows-1 {
			end = len(s)
		}
		lat := make([]time.Duration, 0, end-i*w)
		for _, o := range s[i*w : end] {
			lat = append(lat, o.lat)
		}
		st.p50s = append(st.p50s, percentile(lat, 50))
		st.p90s = append(st.p90s, percentile(lat, 90))
	}
	st.rounds, st.rate, st.cpuMs = len(st.rates), median(st.rates), median(st.cpus)
	st.p50, st.p90 = median(st.p50s), median(st.p90s)
	return st
}
