package main

// The bench gate: a table of named checks over the fresh report, each
// with one field, one comparison and one bound. Relative bounds scale
// another field of the fresh report (the off-state twins) or of the
// baseline, the report this run replaces (the probe speedup floor), so
// they hold across runner hardware. capstress runs the gate after it
// writes the report and exits non-zero listing every failed check.

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// A check is one gate rule: the value at field (a dot path into the
// fresh report) compared by op against bound. With ref, bound is a
// factor on the value at ref, a path into the fresh report or, with a
// "baseline." prefix, into the baseline. Booleans compare as 1 (true)
// and 0 (false). op "in" requires a string field to be one of want; op
// "has" requires a list field to hold want[0]. A check with when set
// applies only while the string at path when[0] equals when[1]. A
// field or ref missing from its report fails the check.
type check struct {
	field string
	op    string // "<=", ">=", "==", ">", "in", "has"
	bound float64
	ref   string
	want  []string
	when  [2]string
	msg   string
}

func (c check) name() string {
	rhs := fmtNum(c.bound)
	switch {
	case c.op == "in" || c.op == "has":
		rhs = strings.Join(c.want, "|")
	case c.ref != "":
		rhs += " × " + c.ref
	}
	name := c.field + " " + c.op + " " + rhs
	if c.when[0] != "" {
		name += " when " + c.when[0] + " = " + c.when[1]
	}
	return name
}

func fmtNum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// gateChecks is the gate table. base supplies the probe paths whose
// speedups the fresh report must keep within 20%.
func gateChecks(base map[string]any) []check {
	// The granted divide must stay allocation-free in the runtime: the
	// only tolerated alloc is noise, never the old per-spawn goroutine +
	// closure. The ceiling is fixed: raise it only with a design change.
	cs := []check{{field: "results.atomic/divide_granted.allocs_per_op", op: "<=", bound: 1, msg: "divide_granted allocs regressed"}}
	// Probe and the refusal paths are flat-out allocation-free.
	for _, name := range []string{"atomic/probe_granted_serial", "atomic/probe_granted_parallel_4x",
		"atomic/probe_granted_parallel_16x", "atomic/probe_refused_parallel_4x", "atomic/try_divide_refused"} {
		cs = append(cs, check{field: "results." + name + ".allocs_per_op", op: "==", bound: 0, msg: "hot path allocates"})
	}
	// Regression gates on mutex-relative speedups, so they transfer
	// across runner hardware: the spin-then-park handoff keeps the
	// granted divide at least even with the goroutine-per-spawn
	// baseline, and no probe path falls more than 20% below the
	// baseline report's speedup.
	cs = append(cs, check{field: "speedups.divide_granted", op: ">=", bound: 1.0, msg: "divide_granted regressed vs mutex baseline"})
	if sp, ok := base["speedups"].(map[string]any); ok {
		paths := make([]string, 0, len(sp))
		for path := range sp {
			if strings.HasPrefix(path, "probe_") {
				paths = append(paths, path)
			}
		}
		sort.Strings(paths)
		for _, path := range paths {
			cs = append(cs, check{field: "speedups." + path, op: ">=", bound: 0.8, ref: "baseline.speedups." + path, msg: "probe speedup regressed >20%"})
		}
	}
	// Grant rate under a nop-worker storm is legitimately near zero
	// (instant deaths keep the throttle tripped); only sanity-bound it.
	cs = append(cs,
		check{field: "storm.probes", op: ">", bound: 0, msg: "storm made no probes"},
		check{field: "storm.grant_rate", op: ">=", bound: 0, msg: "storm grant rate out of [0, 1]"},
		check{field: "storm.grant_rate", op: "<=", bound: 1, msg: "storm grant rate out of [0, 1]"},
		check{field: "serve.rps", op: ">", bound: 0, msg: "serve run made no progress"},
	)
	// Cluster scenario: a backend dies at halftime, clients must not
	// notice, and the death must show in the router's accounting.
	cs = append(cs,
		check{field: "cluster.errors", op: "==", bound: 0, msg: "clients saw a killed backend"},
		check{field: "cluster.requests", op: ">", bound: 0, msg: "cluster scenario served nothing"},
		check{field: "cluster.deaths", op: ">", bound: 0, msg: "backend death not in the router's accounting"},
		check{field: "cluster.remote_grant_rate", op: ">", bound: 0, msg: "remote grant rate out of (0, 1]"},
		check{field: "cluster.remote_grant_rate", op: "<=", bound: 1, msg: "remote grant rate out of (0, 1]"},
		check{field: "cluster.fallback_rate", op: ">=", bound: 0, msg: "fallback rate out of [0, 1]"},
		check{field: "cluster.fallback_rate", op: "<=", bound: 1, msg: "fallback rate out of [0, 1]"},
	)
	// Plane budgets. captrace: armed may cost at most 5% over off, and
	// the off cases must sit on their atomic twins (the disabled ~0%
	// check); sampled ring writes stay allocation-free on the probe path
	// and the traced divide keeps its one tolerated alloc. capwatch: an
	// armed sampler may cost at most 2% on the probe paths and 5% on the
	// divide pair (its run-to-run spread straddles zero at ±3%); the off
	// control carries an inert ticker, so its cases get 15% headroom
	// over their ticker-free atomic twins. capscope: arming the recorder
	// on an already-armed sampler gets the watch ceilings, and its off
	// cases pin to the watch-armed cases (their exact configuration)
	// within 15%. capfault: the wraps installed with zero rules stay
	// within 5% of unwrapped at both wrap points.
	for _, path := range []string{"probe_granted_serial", "probe_granted_parallel_4x", "divide_granted"} {
		cs = append(cs, check{field: "trace_overhead." + path + ".armed_overhead_pct", op: "<=", bound: 5.0, msg: "armed trace overhead over budget"})
	}
	probePaths := []string{"probe_granted_serial", "probe_granted_parallel_4x"}
	for _, path := range probePaths {
		cs = append(cs,
			check{field: "results.trace/" + path + "_off.ns_per_op", op: "<=", bound: 1.10, ref: "results.atomic/" + path + ".ns_per_op", msg: "tracing-off case drifted from its atomic twin"},
			check{field: "results.trace/" + path + "_traced.allocs_per_op", op: "==", bound: 0, msg: "traced probe allocates"})
	}
	cs = append(cs, check{field: "results.trace/divide_granted_traced.allocs_per_op", op: "<=", bound: 1, msg: "traced divide allocs regressed"})
	for _, path := range probePaths {
		cs = append(cs, check{field: "watch_overhead." + path + ".armed_overhead_pct", op: "<=", bound: 2.0, msg: "armed watch overhead over budget"})
	}
	cs = append(cs, check{field: "watch_overhead.divide_granted.armed_overhead_pct", op: "<=", bound: 5.0, msg: "armed watch overhead over budget"})
	for _, path := range probePaths {
		cs = append(cs, check{field: "results.watch/" + path + "_off.ns_per_op", op: "<=", bound: 1.15, ref: "results.atomic/" + path + ".ns_per_op", msg: "watch-off case drifted from its atomic twin"})
	}
	// The serving run's SLO verdict, from an armed sampler: sane, and
	// unburned on an idle-error run.
	cs = append(cs,
		check{field: "serve.slo.availability", op: ">=", bound: 0, msg: "serve availability out of [0, 1]"},
		check{field: "serve.slo.availability", op: "<=", bound: 1, msg: "serve availability out of [0, 1]"},
		check{field: "serve.slo.burn_rate", op: ">=", bound: 0, msg: "serve burn rate negative"},
		check{field: "serve.slo.exhausted", op: "==", bound: 0, msg: "serve run burned its SLO budget"},
	)
	for _, point := range []string{"transport", "handler"} {
		cs = append(cs, check{field: "fault_overhead." + point + ".disarmed_overhead_pct", op: "<=", bound: 5.0, msg: "disarmed capfault overhead over budget"})
	}
	for _, path := range probePaths {
		cs = append(cs, check{field: "incident_overhead." + path + ".armed_overhead_pct", op: "<=", bound: 2.0, msg: "armed incident overhead over budget"})
	}
	cs = append(cs, check{field: "incident_overhead.divide_granted.armed_overhead_pct", op: "<=", bound: 5.0, msg: "armed incident overhead over budget"})
	for _, path := range probePaths {
		cs = append(cs, check{field: "results.incident/" + path + "_off.ns_per_op", op: "<=", bound: 1.15, ref: "results.watch/" + path + "_armed.ns_per_op", msg: "incident-off case drifted from its watch-armed twin"})
	}
	// Staged burn: the overload must exhaust the budget and the recorder
	// must land a complete bundle.
	sloTrigger := [2]string{"incident.trigger", "slo_budget_exhausted"}
	cs = append(cs,
		check{field: "incident.bundles", op: ">=", bound: 1, msg: "staged burn landed no bundle"},
		check{field: "incident.trigger", op: "in", want: []string{"slo_budget_exhausted", "shed_storm"}, msg: "unexpected incident trigger"},
		check{field: "incident.fast_burn", op: ">=", bound: 1, when: sloTrigger, msg: "budget trigger without a fast burn"},
		check{field: "incident.slow_burn", op: ">=", bound: 1, when: sloTrigger, msg: "budget trigger without a slow burn"},
	)
	for _, f := range []string{"watch.json", "trace.json", "heap.pprof"} {
		cs = append(cs, check{field: "incident.files", op: "has", want: []string{f}, msg: "bundle missing a core artifact"})
	}
	// Chaos storms hold the zero-failed-client-requests line, and the
	// mechanism under test must demonstrably have fired.
	for _, name := range []string{"churn", "slow", "partition"} {
		cs = append(cs,
			check{field: "chaos." + name + ".errors", op: "==", bound: 0, msg: "chaos storm leaked to clients"},
			check{field: "chaos." + name + ".requests", op: ">", bound: 0, msg: "chaos storm served nothing"})
	}
	cs = append(cs,
		check{field: "chaos.churn.leaves", op: ">", bound: 0, msg: "churn storm never churned"},
		check{field: "chaos.churn.joins", op: ">", bound: 0, msg: "churn storm never churned"},
		check{field: "chaos.slow.ejections", op: ">", bound: 0, msg: "slow backend never ejected"},
		check{field: "chaos.slow.readmitted", op: "==", bound: 1, msg: "ejected backend never readmitted"},
		check{field: "chaos.partition.deaths", op: ">", bound: 0, msg: "partition never cost a bounded death"},
		check{field: "chaos.partition.breaker_denies", op: ">", bound: 0, msg: "partition never broke the breaker"},
	)
	// Router-plane storms: a replica killed mid-storm leaks nothing and
	// replicas agree on placement; across the feed partition the push
	// plane carried before the cut and the fallback kept every gauge
	// fresh after it.
	cs = append(cs,
		check{field: "router_chaos.replica_kill.errors", op: "==", bound: 0, msg: "replica kill leaked to clients"},
		check{field: "router_chaos.replica_kill.requests", op: ">", bound: 0, msg: "replica kill served nothing"},
		check{field: "router_chaos.replica_kill.failovers", op: ">", bound: 0, msg: "replica kill never failed over"},
		check{field: "router_chaos.replica_kill.placement_checked", op: ">", bound: 0, msg: "placement agreement unchecked"},
		check{field: "router_chaos.replica_kill.placement_agreed", op: "==", bound: 1, ref: "router_chaos.replica_kill.placement_checked", msg: "replicas disagree on placement"},
		check{field: "router_chaos.feed_partition.errors", op: "==", bound: 0, msg: "feed partition leaked to clients"},
		check{field: "router_chaos.feed_partition.refresh_skipped_pre", op: ">", bound: 0, msg: "push plane never carried before the cut"},
		check{field: "router_chaos.feed_partition.feed_deltas", op: ">", bound: 0, msg: "feed partition saw no feed deltas"},
		check{field: "router_chaos.feed_partition.stale_decays", op: "==", bound: 0, msg: "fallback failed to keep gauges fresh"},
	)
	return cs
}

// lookup walks a dot path through decoded JSON objects.
func lookup(v any, path string) (any, bool) {
	for _, k := range strings.Split(path, ".") {
		m, ok := v.(map[string]any)
		if !ok {
			return nil, false
		}
		if v, ok = m[k]; !ok {
			return nil, false
		}
	}
	return v, true
}

// number reads a JSON number or boolean (1 or 0) at path.
func number(doc map[string]any, path string) (float64, error) {
	v, ok := lookup(doc, path)
	if !ok {
		return 0, fmt.Errorf("%s missing", path)
	}
	switch x := v.(type) {
	case float64:
		return x, nil
	case bool:
		if x {
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("%s is %v, not a number", path, v)
}

// limit is the numeric bound c compares against: bound itself, or
// bound times the value at ref.
func (c check) limit(fresh, base map[string]any) (float64, error) {
	if c.ref == "" {
		return c.bound, nil
	}
	doc, path := fresh, c.ref
	if p, ok := strings.CutPrefix(c.ref, "baseline."); ok {
		doc, path = base, p
	}
	ref, err := number(doc, path)
	return c.bound * ref, err
}

// eval reports whether c holds on fresh, with base as the baseline, and
// why not when it does not.
func (c check) eval(fresh, base map[string]any) (bool, string) {
	if c.when[0] != "" {
		if v, _ := lookup(fresh, c.when[0]); v != c.when[1] {
			return true, ""
		}
	}
	switch c.op {
	case "in":
		v, _ := lookup(fresh, c.field)
		s, ok := v.(string)
		return ok && slices.Contains(c.want, s), fmt.Sprintf("got %v", v)
	case "has":
		v, _ := lookup(fresh, c.field)
		list, _ := v.([]any)
		return slices.Contains(list, any(c.want[0])), fmt.Sprintf("got %v", v)
	}
	got, err := number(fresh, c.field)
	if err != nil {
		return false, err.Error()
	}
	bound, err := c.limit(fresh, base)
	if err != nil {
		return false, err.Error()
	}
	var ok bool
	switch c.op {
	case "<=":
		ok = got <= bound
	case ">=":
		ok = got >= bound
	case "==":
		ok = got == bound
	case ">":
		ok = got > bound
	}
	return ok, fmt.Sprintf("got %s, bound %s", fmtNum(got), fmtNum(bound))
}

// gate judges the fresh report against the gate table, with the
// baseline (baseErr when it could not be read) supplying the relative
// bounds, and returns one line per failed check. It prints the
// hardware both reports ran on, and says so when it differs: that is
// informational, not a check.
func gate(w io.Writer, freshJSON, baseJSON []byte, baseErr error) []string {
	var failed []string
	var fresh, base map[string]any
	if err := json.Unmarshal(freshJSON, &fresh); err != nil {
		return []string{"fresh report unreadable: " + err.Error()}
	}
	if baseErr == nil {
		baseErr = json.Unmarshal(baseJSON, &base)
	}
	if baseErr != nil {
		failed = append(failed, "baseline unreadable: "+baseErr.Error())
	} else if _, ok := base["speedups"].(map[string]any); !ok {
		failed = append(failed, "baseline has no speedups section")
	}
	hw := func(d map[string]any) string {
		return fmt.Sprintf("gomaxprocs %v, num_cpu %v", d["gomaxprocs"], d["num_cpu"])
	}
	fmt.Fprintf(w, "bench gate: fresh report ran on %s\n", hw(fresh))
	if base != nil {
		fmt.Fprintf(w, "bench gate: baseline ran on %s\n", hw(base))
		if hw(fresh) != hw(base) {
			fmt.Fprintln(w, "bench gate: the two reports ran on different CPU counts, so their numbers are not directly comparable")
		}
	}
	checks := gateChecks(base)
	for _, c := range checks {
		if ok, why := c.eval(fresh, base); !ok {
			failed = append(failed, fmt.Sprintf("%s: %s (%s)", c.name(), c.msg, why))
		}
	}
	for _, f := range failed {
		fmt.Fprintln(w, "bench gate FAIL:", f)
	}
	fmt.Fprintf(w, "bench gate: %d checks, %d failed\n", len(checks), len(failed))
	return failed
}
