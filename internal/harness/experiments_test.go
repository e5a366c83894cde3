package harness

import (
	"reflect"
	"testing"
)

// TestSmokeRegistry runs every registered smoke gate the way benchjson
// -smoke does. Exactly E13–E18 register one; each gate's exact checks
// pass on a healthy tree (wall-clock checks are logged, not asserted: a
// loaded test host may dip them); the verdict carries its measurement;
// and a second run reproduces the verdict bit for bit, measurement
// included.
func TestSmokeRegistry(t *testing.T) {
	cases := []struct {
		id string
		// measured is a value of the type Verdict.Measured must hold.
		measured any
		// extra, if set, asserts gate-specific properties.
		extra func(t *testing.T, v Verdict)
	}{
		{"E13", []LoadPoint(nil), func(t *testing.T, v Verdict) {
			if pts := v.Measured.([]LoadPoint); len(pts) != 3 {
				t.Fatalf("E13 gate ran %d points, want 3", len(pts))
			}
		}},
		{"E14", WirePoint{}, nil},
		{"E15", ReconfigRun{}, nil},
		{"E16", FaultPoint{}, nil},
		{"E17", RecoveryPoint{}, nil},
		{"E18", StagePoint{}, nil},
	}
	registered := map[string]bool{}
	for _, id := range ExperimentIDs() {
		if Experiments[id].Smoke != nil {
			registered[id] = true
		}
	}
	if len(registered) != len(cases) {
		t.Errorf("%d experiments register a smoke gate, want %d", len(registered), len(cases))
	}
	for _, c := range cases {
		c := c
		t.Run(c.id, func(t *testing.T) {
			if !registered[c.id] {
				t.Fatalf("%s registers no smoke gate", c.id)
			}
			exp := Experiments[c.id]
			v := exactChecks(t, exp.Smoke())
			t.Log(v)
			if v.Gate != exp.Name {
				t.Errorf("gate %q, want the experiment name %q", v.Gate, exp.Name)
			}
			if len(v.Checks) == 0 || !v.Pass() {
				t.Fatalf("gate failed: %s", v)
			}
			if got, want := reflect.TypeOf(v.Measured), reflect.TypeOf(c.measured); got != want {
				t.Fatalf("measured %v, want %v", got, want)
			}
			if c.extra != nil {
				c.extra(t, v)
			}
			if again := exactChecks(t, exp.Smoke()); !reflect.DeepEqual(v, again) {
				t.Fatalf("gate not reproducible:\n%s\n%s", v, again)
			}
		})
	}
}

// exactChecks drops a verdict's wall-clock checks, logging them: they
// are the only checks whose outcome may differ between runs.
func exactChecks(t *testing.T, v Verdict) Verdict {
	var exact []Check
	for _, c := range v.Checks {
		if c.WallClock {
			t.Logf("wall-clock check (logged only): %s", c)
			continue
		}
		exact = append(exact, c)
	}
	v.Checks = exact
	return v
}
