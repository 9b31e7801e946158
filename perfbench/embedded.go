package main

import (
	"time"

	"repro/rcm"
)

// embedded is the order-embedded workload: one caller runs rcm.Order back
// to back over every (analog, leg) pair, in a seeded order per round.
type embedded struct {
	seed  int64
	in    []input
	legs  []leg
	pairs [][2]int // (input, leg) pairs of one round
	round int64
	tr    *tracer
}

func newEmbedded(seed int64, in []input, nproc int, tr *tracer) *embedded {
	e := &embedded{seed: seed, in: in, legs: embeddedLegs(nproc), tr: tr}
	for i := range in {
		for l, lg := range e.legs {
			if !lg.amd || in[i].mesh {
				e.pairs = append(e.pairs, [2]int{i, l})
			}
		}
	}
	return e
}

func (e *embedded) roundLen() int { return len(e.pairs) }

// loop runs whole rounds until d has passed; req numbers the operations.
func (e *embedded) loop(d time.Duration, req int64) ([]output, int64) {
	deadline := time.Now().Add(d)
	var outs []output
	for len(outs) == 0 || time.Now().Before(deadline) {
		for _, p := range shuffled(e.seed, e.round, len(e.pairs)) {
			i, lg := e.pairs[p][0], e.legs[e.pairs[p][1]]
			layer := "core"
			if lg.amd {
				layer = "amd"
			}
			var res *rcm.Result
			var err error
			o := output{ref: refKey{input: i, amd: lg.amd, start: -1}, leg: lg.name}
			o.lat = e.tr.call("client", "op", req, func() {
				e.tr.call(layer, "rcm.Order/"+lg.name, req, func() { res, err = rcm.Order(e.in[i].a, lg.opts...) })
			})
			o.done, o.cpu = time.Now(), processCPU()
			if err != nil {
				o.fail = err.Error()
			} else {
				o.res = res
			}
			outs = append(outs, o)
			req++
		}
		e.round++
	}
	return outs, req
}
