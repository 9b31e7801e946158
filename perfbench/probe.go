package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"repro/rcm"
	"repro/rcm/service"
)

// prober times calls into each layer's public functions on a workload's
// inputs, as probe-phase spans with one request id per call. A workload
// probes only the layers its request path calls, so the others read zero.
type prober struct {
	tr  *tracer
	req int64
	m   map[string]float64
}

func (p *prober) time(layer, name string, f func()) time.Duration {
	p.req++
	return p.tr.call(layer, name, p.req, f)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// spmat times the bookkeeping rcm.Order runs around the engine on one
// matrix: the symmetry check, the PAPᵀ permute, and the statistics
// (Before on a, After on PAPᵀ), all serial like the sequential leg.
func (p *prober) spmat(a *rcm.Matrix, perm []int) (sym, permute, stats time.Duration, err error) {
	sym = p.time("spmat", "Matrix.IsSymmetricPattern", func() { a.IsSymmetricPattern() })
	var pa *rcm.Matrix
	permute = p.time("spmat", "rcm.Permute", func() { pa, err = rcm.Permute(a, perm) })
	if err != nil {
		return 0, 0, 0, fmt.Errorf("permuting: %w", err)
	}
	stats = p.time("spmat", "Matrix.Stats", func() { a.Stats() })
	stats += p.time("spmat", "Matrix.Stats", func() { pa.Stats() })
	return sym, permute, stats / 2, nil
}

// spmatMetrics records the spmat probe means over the inputs against the
// mean sequential Order time on the same inputs.
func (p *prober) spmatMetrics(sym, perm, stats, order time.Duration, n int) {
	nd := time.Duration(n)
	sym, perm, stats, order = sym/nd, perm/nd, stats/nd, order/nd
	book := sym + perm + 2*stats
	p.m["spmat.symcheck_ms"] = ms(sym)
	p.m["spmat.permute_ms"] = ms(perm)
	p.m["spmat.stats_ms"] = ms(stats)
	p.m["spmat.share_of_order"] = float64(book) / float64(order)
	p.m["core.engine_self_ms.sequential"] = ms(order - book)
}

// embedded probes the spmat calls of the sequential leg on every analog and
// returns their summed times; core and amd times come from the traced path.
func (p *prober) embedded(in []input, seqPerm map[int][]int) (sym, perm, stats time.Duration, err error) {
	for i := range in {
		s, pm, st, err := p.spmat(in[i].a, seqPerm[i])
		if err != nil {
			return 0, 0, 0, fmt.Errorf("%s: %w", in[i].name, err)
		}
		sym, perm, stats = sym+s, perm+pm, stats+st
	}
	return sym, perm, stats, nil
}

// missReps is the number of fresh keys each serve-miss service probe times.
const missReps = 3

// keyIters repeats the sub-microsecond calls so one span is long enough to
// time.
const keyIters = 200

// serve probes the layers a fleet request passes through: decode (proxy and
// replica), digest and key, the service (a cached hit on serve-hit, the
// miss overhead around rcm.Order on serve-miss) and the response encode;
// on serve-miss also the engine and its bookkeeping.
func (p *prober) serve(in []input, miss bool) error {
	ctx := context.Background()
	svc := service.New(service.Config{})
	defer svc.Close()
	var rcmbT, mmT, digestT, keyT, hitT, overT, encT, orderT, sym, perm, stats time.Duration
	var decoded int64
	pd := 0
	for i := range in {
		x := &in[i]
		// mmio: the proxy decodes through service.DecodeMatrix, the replica
		// through the readers directly.
		var err error
		rcmbT += p.time("mmio", "service.DecodeMatrix/rcmb", func() { _, err = service.DecodeMatrix(service.ContentTypeBinary, x.rcmb) })
		if err != nil {
			return fmt.Errorf("%s: decoding RCMB: %w", x.name, err)
		}
		mmT += p.time("mmio", "service.DecodeMatrix/mm", func() { _, err = service.DecodeMatrix(service.ContentTypeMatrixMarket, x.mm) })
		if err != nil {
			return fmt.Errorf("%s: decoding Matrix Market: %w", x.name, err)
		}
		var a *rcm.Matrix
		rcmbT += p.time("mmio", "rcm.ReadBinaryBytes", func() { a, err = rcm.ReadBinaryBytes(x.rcmb, 0) })
		if err != nil {
			return fmt.Errorf("%s: decoding RCMB: %w", x.name, err)
		}
		var fresh *rcm.Matrix
		mmT += p.time("mmio", "rcm.ReadMatrixMarket", func() { fresh, _, err = rcm.ReadMatrixMarket(bytes.NewReader(x.mm)) })
		if err != nil {
			return fmt.Errorf("%s: decoding Matrix Market: %w", x.name, err)
		}
		decoded += 2 * int64(len(x.rcmb)+len(x.mm))

		// digest: a Matrix Market decode does not pre-seed the digest.
		var digest string
		digestT += p.time("digest", "Matrix.Digest", func() { digest = fresh.Digest() })
		sp := service.Spec{}
		if miss {
			s := a.N() / 2
			sp.Start = &s
		}
		keyT += p.time("digest", "service.OrderKey", func() {
			for range keyIters {
				_, err = service.OrderKey(digest, sp)
			}
		}) / keyIters
		if err != nil {
			return fmt.Errorf("%s: key: %w", x.name, err)
		}

		// service: serve-hit times the cached hit, serve-miss a computing
		// call against a bare rcm.Order of the same key. The miss overhead
		// is a small difference of two large times, so each side takes the
		// fastest of missReps keys.
		var resp *service.Response
		if miss {
			var res *rcm.Result
			svcMin, orderMin := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
			for r := range missReps {
				s := *sp.Start + r
				sp.Start = &s
				svcMin = min(svcMin, p.time("service", "Service.Order/miss", func() { resp, err = svc.Order(ctx, a, sp) }))
				if err != nil {
					return fmt.Errorf("%s: service miss: %w", x.name, err)
				}
				opts, err := sp.Options()
				if err != nil {
					return fmt.Errorf("%s: options: %w", x.name, err)
				}
				orderMin = min(orderMin, p.time("core", "rcm.Order/sequential", func() { res, err = rcm.Order(a, opts...) }))
				if err != nil {
					return fmt.Errorf("%s: order: %w", x.name, err)
				}
			}
			orderT += orderMin
			overT += svcMin - orderMin
			pd += res.PseudoDiameter
			s, pm, st, err := p.spmat(a, res.Perm)
			if err != nil {
				return fmt.Errorf("%s: %w", x.name, err)
			}
			sym, perm, stats = sym+s, perm+pm, stats+st
		} else {
			if resp, err = svc.Order(ctx, a, sp); err != nil {
				return fmt.Errorf("%s: service warm: %w", x.name, err)
			}
			hitT += p.time("service", "Service.Order/hit", func() {
				for range keyIters {
					resp, err = svc.Order(ctx, a, sp)
				}
			}) / keyIters
			if err != nil || !resp.Cached {
				return fmt.Errorf("%s: service hit probe missed (err %v)", x.name, err)
			}
		}

		// http: the handler's JSON encode of the Response with its perm.
		encT += p.time("http", "json.Encode(Response)", func() {
			enc := json.NewEncoder(io.Discard)
			enc.SetEscapeHTML(false)
			err = enc.Encode(resp)
		})
		if err != nil {
			return fmt.Errorf("%s: encoding response: %w", x.name, err)
		}
	}
	n := time.Duration(len(in))
	p.m["mmio.decode_rcmb_ms"] = ms(rcmbT / (2 * n))
	p.m["mmio.decode_mm_ms"] = ms(mmT / (2 * n))
	p.m["mmio.decode_mb_per_s"] = float64(decoded) / 1e6 / (rcmbT + mmT).Seconds()
	p.m["digest.matrix_ms"] = ms(digestT / n)
	p.m["digest.key_us"] = float64(keyT/n) / 1e3
	p.m["http.encode_ms"] = ms(encT / n)
	if miss {
		p.m["service.miss_overhead_ms"] = ms(overT / n)
		p.m["core.order_ms.sequential"] = ms(orderT / n)
		p.m["core.pseudo_diameter"] = float64(pd)
		p.spmatMetrics(sym, perm, stats, orderT, len(in))
	} else {
		p.m["service.hit_us"] = float64(hitT/n) / 1e3
	}
	return nil
}
