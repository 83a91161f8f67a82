package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

// committed reads the tracked report, the gate's baseline in CI.
func committed(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile("../../BENCH_capsule.json")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func decode(t *testing.T, data []byte) map[string]any {
	t.Helper()
	var d map[string]any
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func encode(t *testing.T, d map[string]any) []byte {
	t.Helper()
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// set stores v at a dot path of an existing field.
func set(t *testing.T, d map[string]any, path string, v any) {
	t.Helper()
	i := strings.LastIndex(path, ".")
	parent := any(d)
	if i >= 0 {
		parent, _ = lookup(d, path[:i])
	}
	m, _ := parent.(map[string]any)
	if _, ok := m[path[i+1:]]; !ok {
		t.Fatalf("%s missing from the report", path)
	}
	m[path[i+1:]] = v
}

// failedChecks runs the gate and returns the names of the failed checks.
func failedChecks(fresh, base []byte) []string {
	var names []string
	for _, f := range gate(io.Discard, fresh, base, nil) {
		names = append(names, f[:strings.Index(f, ": ")])
	}
	return names
}

func TestGateCommittedReportPassesItself(t *testing.T) {
	data := committed(t)
	if failed := gate(io.Discard, data, data, nil); len(failed) != 0 {
		t.Fatalf("committed report fails its own gate:\n%s", strings.Join(failed, "\n"))
	}
	names := map[string]bool{}
	for _, c := range gateChecks(decode(t, data)) {
		if names[c.name()] {
			t.Fatalf("two checks named %q", c.name())
		}
		names[c.name()] = true
	}
}

// TestGateEachCheckTrips pushes each check's field one step past its
// bound on a copy of the committed report and asserts exactly that check
// fails. The only other checks allowed to fail with it are those that
// read the same field as their reference (placement_agreed ==
// placement_checked fails along with placement_checked > 0). For an
// inclusive bound, the field sitting exactly on the bound passes.
func TestGateEachCheckTrips(t *testing.T) {
	data := committed(t)
	for _, c := range gateChecks(decode(t, data)) {
		t.Run(c.name(), func(t *testing.T) {
			d := decode(t, data)
			v, _ := lookup(d, c.field)
			switch {
			case c.op == "in":
				set(t, d, c.field, "not_a_trigger")
			case c.op == "has":
				list := slices.DeleteFunc(slices.Clone(v.([]any)), func(x any) bool { return x == c.want[0] })
				set(t, d, c.field, list)
			case c.ref != "" || c.op != "==" || !isBool(v):
				bound, err := c.limit(d, decode(t, data))
				if err != nil {
					t.Fatal(err)
				}
				if c.op != ">" {
					set(t, d, c.field, bound)
					if failed := failedChecks(encode(t, d), data); slices.Contains(failed, c.name()) {
						t.Fatalf("field exactly on the bound %v fails", bound)
					}
				}
				set(t, d, c.field, past(c.op, bound))
			default:
				set(t, d, c.field, c.bound == 0) // the boolean that fails
			}
			failed := failedChecks(encode(t, d), data)
			if !slices.Contains(failed, c.name()) {
				t.Fatalf("check passes with its field past the bound; failed: %v", failed)
			}
			for _, f := range failed {
				if f != c.name() && !strings.HasSuffix(f, " × "+c.field) { // a check reading the field as its ref
					t.Errorf("unrelated check %q failed too", f)
				}
			}
		})
	}
}

func isBool(v any) bool { _, ok := v.(bool); return ok }

// past returns the value one float64 step past bound on op's failing
// side; for ">" the bound itself fails.
func past(op string, bound float64) float64 {
	switch op {
	case "<=", "==":
		return math.Nextafter(bound, math.Inf(1))
	case ">=":
		return math.Nextafter(bound, math.Inf(-1))
	}
	return bound
}

// TestGateMissingSectionFails drops each top-level section a check
// reads: the gate must fail, never skip.
func TestGateMissingSectionFails(t *testing.T) {
	data := committed(t)
	sections := map[string]bool{}
	for _, c := range gateChecks(decode(t, data)) {
		sections[strings.SplitN(c.field, ".", 2)[0]] = true
	}
	for s := range sections {
		d := decode(t, data)
		delete(d, s)
		if failed := failedChecks(encode(t, d), data); len(failed) == 0 {
			t.Errorf("report without %q passes the gate", s)
		}
	}
}

func TestGateBaselineMissingOrUnreadableFails(t *testing.T) {
	data := committed(t)
	noSpeedups := decode(t, data)
	delete(noSpeedups, "speedups")
	for name, tc := range map[string]struct {
		base []byte
		err  error
	}{
		"missing":     {nil, os.ErrNotExist},
		"unreadable":  {[]byte("{not json"), nil},
		"no speedups": {encode(t, noSpeedups), nil},
	} {
		if failed := gate(io.Discard, data, tc.base, tc.err); len(failed) == 0 {
			t.Errorf("%s baseline passes the gate", name)
		}
	}
}

// TestGatePrintsHardware pins the informational hardware lines: both
// reports' gomaxprocs and num_cpu, and a plain note when they differ.
func TestGatePrintsHardware(t *testing.T) {
	data := committed(t)
	d := decode(t, data)
	set(t, d, "num_cpu", 4.0)
	var out strings.Builder
	gate(&out, encode(t, d), data, nil)
	for _, want := range []string{"fresh report ran on gomaxprocs 1, num_cpu 4", "baseline ran on gomaxprocs 1, num_cpu 1", "different CPU counts"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("gate output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestGateTableGolden pins the gate table, each check's field,
// comparison and bound, to testdata/gate_checks.golden, so loosening or
// dropping a bound is a reviewed diff to that file.
func TestGateTableGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/gate_checks.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, c := range gateChecks(decode(t, committed(t))) {
		got.WriteString(c.name() + "\n")
	}
	if got.String() != string(want) {
		t.Fatalf("gate table differs from testdata/gate_checks.golden:\n%s", got.String())
	}
}
