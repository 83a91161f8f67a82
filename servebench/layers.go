package main

// layerMetrics computes the per-layer metrics. Counter deltas, process
// costs and compute times come from the untraced phase p, so span
// recording does not pollute them; span-derived times come from the
// traced phase tp. It also reports whether every joined request's
// spans nest (client ⊇ router ⊇ wire ⊇ handler ⊇ compute), which is
// false only if the join is broken.
func layerMetrics(w *workload, p, tp phase, tr *tracer) (map[string]metric, bool) {
	m := map[string]metric{}
	us := func(name string, ns float64) { m[name] = metric{ns / 1e3, "us"} }
	ok := float64(p.t.ok())
	b, a := p.before, p.after

	// capsule: the probe/divide runtime, summed over every runtime.
	probes := float64(a.probes - b.probes)
	m["capsule.probes_per_req"] = metric{ratio(probes, ok), "1/req"}
	m["capsule.grant_ratio"] = metric{ratio(float64(a.granted-b.granted), probes), "ratio"}
	m["capsule.noctx_deny_ratio"] = metric{ratio(float64(a.noCtx-b.noCtx), probes), "ratio"}
	m["capsule.throttle_deny_ratio"] = metric{ratio(float64(a.throttle-b.throttle), probes), "ratio"}
	m["capsule.deaths_per_req"] = metric{ratio(float64(a.deaths-b.deaths), ok), "1/req"}

	// workloads: compute as served (elapsed_ns) against the same inputs
	// on Sequential(), and input generation from the reference calls.
	us("workloads.compute_us_p50", p.t.compute.quantile(0.5))
	us("workloads.seq_compute_us_p50", p.t.seq.quantile(0.5))
	us("workloads.gen_us_p50", p.t.gen.quantile(0.5))
	m["capsule.division_speedup"] = metric{ratio(p.t.seqSum, p.t.computeSum), "x"}

	// capserve: admission outcomes over the backends' endpoints.
	m["capserve.shed_ratio"] = metric{ratio(float64(a.shed-b.shed), float64(a.served-b.served)), "ratio"}
	m["capserve.degraded_ratio"] = metric{ratio(float64(a.degraded-b.degraded), float64(a.ok-b.ok)), "ratio"}
	m["capserve.queue_occupancy_mean"] = metric{ratio(float64(tr.occupancySum.Load()), float64(tr.arrivals.Load())), "requests"}

	// capcluster: the router's own counters (all zero without a router).
	rb, ra := b.router, a.router
	m["capcluster.remote_grant_ratio"] = metric{ratio(float64(ra.RemoteGrants-rb.RemoteGrants), float64(ra.RemoteProbes-rb.RemoteProbes)), "ratio"}
	m["capcluster.fallback_ratio"] = metric{ratio(float64(ra.LocalFallbacks-rb.LocalFallbacks), float64(ra.Requests-rb.Requests)), "ratio"}
	m["capcluster.shed_ratio"] = metric{ratio(float64(ra.RemoteSheds-rb.RemoteSheds), float64(ra.RemoteGrants-rb.RemoteGrants)), "ratio"}
	m["capcluster.conn_reuse_ratio"] = metric{ratio(float64(tr.reused.Load()), float64(tr.conns.Load())), "ratio"}

	// proc: the Go runtime, over the whole process (clients included).
	wall := p.wall.Seconds()
	m["proc.alloc_kb_per_req"] = metric{ratio(float64(a.alloc-b.alloc)/1024, ok), "KiB"}
	m["proc.allocs_per_req"] = metric{ratio(float64(a.mallocs-b.mallocs), ok), "count"}
	m["proc.gc_per_kreq"] = metric{ratio(1000*float64(a.gcs-b.gcs), ok), "1/kreq"}
	m["proc.busy_cores"] = metric{ratio((a.cpu - b.cpu).Seconds(), wall), "cores"}

	// Spans of the traced phase. Self times: router = route − wire,
	// wire = dispatch − handler, capserve = handler − compute, and the
	// client's latency outside the first server's span is unattributed.
	var route, routerSelf, wire, handler, overhead, unattr []int64
	var clientLat, computeT []int64
	joined, nested := 0, true
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, r := range tp.t.kept {
		s, hasS := tr.handler[r.span]
		outer := s
		if w.routed {
			rt, hasR := tr.route[r.span]
			wt, hasW := tr.wire[r.span]
			if !hasR || !hasW || !hasS {
				continue // served by the router's local tier
			}
			route = append(route, rt)
			routerSelf = append(routerSelf, rt-wt)
			wire = append(wire, wt-s)
			nested = nested && rt >= wt && wt >= s
			outer = rt
		} else if !hasS {
			continue
		}
		joined++
		handler = append(handler, s)
		overhead = append(overhead, s-r.compute)
		unattr = append(unattr, r.latency-outer)
		clientLat = append(clientLat, r.latency)
		computeT = append(computeT, r.compute)
		nested = nested && r.latency >= outer && s >= r.compute
	}
	us("capcluster.route_us_p50", quantile(route, 0.5))
	us("capcluster.self_us_p50", quantile(routerSelf, 0.5))
	us("capcluster.wire_us_p50", quantile(wire, 0.5))
	us("capserve.handler_us_p50", quantile(handler, 0.5))
	us("capserve.handler_us_p99", quantile(handler, 0.99))
	us("capserve.overhead_us_p50", quantile(overhead, 0.5))
	us("unattributed_us_p50", quantile(unattr, 0.5))

	// Means over the joined requests add up exactly:
	// client = unattributed + capcluster self + wire + capserve overhead + compute.
	us("client_us_mean", mean(clientLat))
	us("unattributed_us_mean", mean(unattr))
	us("capcluster.self_us_mean", ratio(sum(routerSelf), float64(joined)))
	us("capcluster.wire_us_mean", ratio(sum(wire), float64(joined)))
	us("capserve.overhead_us_mean", mean(overhead))
	us("workloads.compute_us_mean", mean(computeT))
	m["trace_joined_ratio"] = metric{ratio(float64(joined), float64(tp.t.ok())), "ratio"}
	m["trace_overhead_pct"] = metric{100 * ratio(p.throughput()-tp.throughput(), p.throughput()), "%"}

	return m, nested
}
