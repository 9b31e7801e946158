package main

import "time"

// pathLayers are the layers with spans on the live request path: the
// engines on order-embedded; the proxy, the proxy-to-replica transport and
// the replica handler on the serving workloads. Layers the program runs
// inside those calls (mmio, digest, spmat, service) have no live span and
// are measured by the probes.
var pathLayers = []string{"core", "amd", "cluster", "upstream", "http"}

// traced computes the per-layer metrics of a traced run: self times and
// span means from the traced phase, counter deltas over it, the tracing
// overhead against the untraced reference phase, and the layer probes.
// A metric the workload does not measure (no probe, span or counter of its
// layer runs there) reads zero; layers.json lists those as unmeasured_on.
func traced(o options, w workload, tr *tracer, ref, ph phase, c0, c1 fleetCounters, m map[string]float64) error {
	p := &prober{tr: tr, m: m}
	tr.phase.Store("probe")
	in := w.inputs()
	ops := float64(len(ph.outs))
	var sym, perm, stats time.Duration
	if o.workload == orderEmbedded {
		seqPerm := map[int][]int{}
		for _, x := range ph.outs {
			if x.fail == "" && x.leg == "sequential" {
				seqPerm[x.ref.input] = x.res.Perm
			}
		}
		var err error
		if sym, perm, stats, err = p.embedded(in, seqPerm); err != nil {
			return err
		}
	} else if err := p.serve(in, o.workload == serveMiss); err != nil {
		return err
	}
	tr.on.Store(false)
	ss := tr.link()
	if o.workload == orderEmbedded {
		orderSeq, _ := meanDur(ss, "path", "core", "rcm.Order/sequential")
		p.spmatMetrics(sym, perm, stats, orderSeq*time.Duration(len(in)), len(in))
	}

	for _, name := range []string{
		"mmio.decode_rcmb_ms", "mmio.decode_mm_ms", "mmio.decode_mb_per_s",
		"digest.matrix_ms", "digest.key_us",
		"spmat.symcheck_ms", "spmat.permute_ms", "spmat.stats_ms", "spmat.share_of_order",
		"core.order_ms.sequential", "core.order_ms.shared", "core.order_ms.distributed",
		"core.engine_self_ms.sequential", "core.pseudo_diameter",
		"amd.order_ms", "amd.fill_proxy",
		"modeled.comm_s", "modeled.comp_s", "modeled.td_levels", "modeled.bu_levels",
		"service.hit_us", "service.miss_overhead_ms",
		"http.encode_ms",
	} {
		if _, ok := m[name]; !ok {
			m[name] = 0
		}
	}

	layers, unattributed := selfTimes(ss, "path")
	for _, l := range pathLayers {
		m["self_ms."+l] = ms(layers[l]) / ops
	}
	m["unattributed_ms"] = ms(unattributed) / ops
	m["trace.ops_per_s"] = ph.rate
	m["trace.untraced_ops_per_s"] = ref.rate
	m["trace.overhead"] = m["trace.untraced_ops_per_s"]/m["trace.ops_per_s"] - 1
	m["trace.spans"] = float64(len(ss))

	if o.workload == orderEmbedded {
		for _, leg := range []string{"sequential", "shared", "distributed"} {
			d, _ := meanDur(ss, "path", "core", "rcm.Order/"+leg)
			m["core.order_ms."+leg] = ms(d)
		}
		d, _ := meanDur(ss, "path", "amd", "")
		m["amd.order_ms"] = ms(d)
		// Exact counts: one result per analog and leg.
		seen := map[[2]any]bool{}
		for _, x := range ph.outs {
			k := [2]any{x.ref.input, x.leg}
			if x.fail != "" || seen[k] {
				continue
			}
			seen[k] = true
			switch x.leg {
			case "sequential":
				m["core.pseudo_diameter"] += float64(x.res.PseudoDiameter)
			case "amd":
				m["amd.fill_proxy"] += float64(x.res.After.FillProxy)
			case "distributed":
				b := x.res.Modeled
				m["modeled.comm_s"] += b.CommSeconds()
				m["modeled.comp_s"] += b.CompSeconds()
				m["modeled.td_levels"] += float64(b.TopDownLevels)
				m["modeled.bu_levels"] += float64(b.BottomUpLevels)
			}
		}
	}

	replica, _ := meanDur(ss, "path", "http", "")
	upstream, _ := meanDur(ss, "path", "upstream", "")
	_, proxies := meanDur(ss, "path", "cluster", "")
	m["http.replica_ms"] = ms(replica)
	m["cluster.upstream_ms"] = ms(upstream)
	m["cluster.proxy_self_ms"] = 0
	if proxies > 0 {
		m["cluster.proxy_self_ms"] = ms(layers["cluster"]) / float64(proxies)
	}
	var body int
	for _, x := range ph.outs {
		body += x.bodyLen
	}
	m["http.body_mb"] = float64(body) / 1e6 / ops

	hits := float64(c1.svc.Hits - c0.svc.Hits)
	misses := float64(c1.svc.Misses - c0.svc.Misses)
	dedups := float64(c1.svc.Dedups - c0.svc.Dedups)
	m["service.hits"], m["service.misses"], m["service.dedups"] = hits, misses, dedups
	m["service.evictions"] = float64(c1.svc.Evictions - c0.svc.Evictions)
	m["service.jobs"] = float64(c1.svc.Jobs - c0.svc.Jobs)
	m["service.hit_ratio"] = 0
	if adm := hits + misses + dedups; adm > 0 {
		m["service.hit_ratio"] = (hits + dedups) / adm
	}
	m["cluster.spills"] = float64(c1.route.Spills - c0.route.Spills)
	m["cluster.coalesced"] = float64(c1.route.Coalesced - c0.route.Coalesced)
	m["cluster.retries"] = float64(c1.route.Retries - c0.route.Retries)
	var shed uint64
	for id, n := range c1.route.Shed {
		shed += n - c0.route.Shed[id]
	}
	m["cluster.shed"] = float64(shed)
	return nil
}
