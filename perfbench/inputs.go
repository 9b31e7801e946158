package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/rcm"
	"repro/rcm/service"
)

// input is one suite analog, re-scrambled by the workload seed, with the
// request bodies the serving workloads upload.
type input struct {
	name     string
	a        *rcm.Matrix
	mesh     bool   // AMD runs on it (the random-graph analogs are left out)
	rcmb, mm []byte // encoded bodies; nil for order-embedded
}

// randomGraphs are the analogs AMD skips: 0.7–1.1 s each at scale 2, which
// would swamp the order-embedded stream.
var randomGraphs = map[string]bool{"Li7Nmax6": true, "Nm7": true}

// makeInputs builds the nine suite analogs at scale, each re-scrambled with
// a seed derived from the workload seed, and encodes their bodies when asked.
func makeInputs(scale int, seed int64, bodies bool) ([]input, error) {
	suite := rcm.Suite()
	in := make([]input, len(suite))
	for i := range suite {
		a, _ := rcm.Scramble(suite[i].Build(scale), seed*1009+int64(i)+1)
		in[i] = input{name: suite[i].Name, a: a, mesh: !randomGraphs[suite[i].Name]}
		if !bodies {
			continue
		}
		var b, m bytes.Buffer
		if err := rcm.WriteBinary(&b, a); err != nil {
			return nil, fmt.Errorf("encoding %s as RCMB: %w", in[i].name, err)
		}
		if err := rcm.WriteMatrixMarket(&m, a, false); err != nil {
			return nil, fmt.Errorf("encoding %s as Matrix Market: %w", in[i].name, err)
		}
		in[i].rcmb, in[i].mm = b.Bytes(), m.Bytes()
	}
	return in, nil
}

// body returns the request body and content type of one upload.
func (in *input) body(mm bool) ([]byte, string) {
	if mm {
		return in.mm, service.ContentTypeMatrixMarket
	}
	return in.rcmb, service.ContentTypeBinary
}

// leg is one order-embedded configuration of rcm.Order.
type leg struct {
	name string
	opts []rcm.Option
	amd  bool
}

func embeddedLegs(nproc int) []leg {
	return []leg{
		{name: "sequential", opts: []rcm.Option{rcm.WithBackend(rcm.Sequential)}},
		{name: "shared", opts: []rcm.Option{rcm.WithBackend(rcm.Shared), rcm.WithThreads(nproc)}},
		{name: "distributed", opts: []rcm.Option{rcm.WithBackend(rcm.Distributed), rcm.WithProcs(4)}},
		{name: "amd", opts: []rcm.Option{rcm.WithOrdering(rcm.AMD), rcm.WithThreads(nproc)}, amd: true},
	}
}

// shuffled returns 0..n-1 in an order drawn from the workload seed and a
// round number, so every request stream is fixed by the seed.
func shuffled(seed, round int64, n int) []int {
	return rand.New(rand.NewSource(seed*7919 + round)).Perm(n)
}

// refKey names the ordering an output must equal: matrix, family and
// pinned start vertex (-1 = the start-vertex heuristic).
type refKey struct {
	input int
	amd   bool
	start int
}

// permHash is the FNV-64a hash of a permutation's little-endian int64s.
func permHash(p []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range p {
		u := uint64(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// reference recomputes the ordering a refKey names through an engine other
// than the ones under test: the algebraic RCM backend (byte-identical to
// every RCM backend by the repo's cross-backend contract) and single-thread
// AMD (byte-identical at any thread count).
func reference(in []input, k refKey) (uint64, error) {
	opts := []rcm.Option{rcm.WithBackend(rcm.Algebraic)}
	if k.amd {
		opts = []rcm.Option{rcm.WithOrdering(rcm.AMD), rcm.WithThreads(1)}
	}
	if k.start >= 0 {
		opts = append(opts, rcm.WithStartVertex(k.start))
	}
	res, err := rcm.Order(in[k.input].a, opts...)
	if err != nil {
		return 0, fmt.Errorf("reference ordering of %s: %w", in[k.input].name, err)
	}
	return permHash(res.Perm), nil
}
