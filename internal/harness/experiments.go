package harness

import (
	"fmt"
	"sort"
	"strings"
)

// Experiment is one registered composite experiment: a stable ID from
// the roadmap's numbering, the table name and headline the drivers
// print, a Run entry point producing the formatted table, the
// interpretation notes that belong under it, and the experiment's CI
// smoke gate. Drivers (benchtables, benchjson) iterate this registry
// instead of hand-wiring each experiment's constructor or gate.
type Experiment struct {
	ID string
	// Name selects the experiment in benchtables -table.
	Name  string
	Title string
	// Run executes the experiment and returns its formatted table.
	// scale is the driver's size knob (benchtables -packets); <= 0
	// selects each experiment's default.
	Run func(scale int) string
	// Notes are interpretation lines printed after the table.
	Notes []string
	// Smoke runs the experiment's small, deterministic CI gate (nil if
	// it has none); benchjson -smoke runs every registered gate.
	Smoke func() Verdict
}

// Verdict is one smoke gate's result: the bounds it checked, detail
// lines for the reader of a failed run, and the measurement behind them.
type Verdict struct {
	// Gate names the gate in reports: its experiment's Name.
	Gate   string
	Checks []Check
	// Notes are informational lines: the measured context of the checks.
	Notes []string
	// Measured is the point (or points) the checks were computed from,
	// so two runs of a gate compare as full measurements.
	Measured any
}

// Check is one bound a smoke gate asserts.
type Check struct {
	Name string
	OK   bool
	// Detail states the measured value against its limit.
	Detail string
	// WallClock marks a host-timing check: the only kind whose outcome
	// may differ between two runs of the same gate.
	WallClock bool
}

// check builds a Check whose Detail is formatted from format and args.
func check(name string, ok bool, format string, args ...any) Check {
	return Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
}

// Pass reports whether every check held.
func (v Verdict) Pass() bool {
	for _, c := range v.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// String is the verdict's one-line summary: the gate, its outcome and
// every check with its detail.
func (v Verdict) String() string {
	parts := make([]string, len(v.Checks))
	for i, c := range v.Checks {
		parts[i] = c.String()
	}
	return fmt.Sprintf("%s %s: %s", v.Gate, okFail(v.Pass()), strings.Join(parts, "; "))
}

func (c Check) String() string {
	s := fmt.Sprintf("%-4s %s: %s", okFail(c.OK), c.Name, c.Detail)
	if c.WallClock {
		s += " [wall-clock]"
	}
	return s
}

func okFail(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}

// Experiments indexes the composite evaluation experiments by ID.
// Tables E1–E11 predate the registry and stay as direct harness calls
// (they are single-table reproductions of the paper); the composite
// extensions register here.
var Experiments = map[string]Experiment{
	"E12": {
		ID:    "E12",
		Name:  "qos",
		Title: "QoS priority classes (§VIII extension)",
		Run: func(scale int) string {
			if scale <= 0 {
				scale = 12
			}
			var b strings.Builder
			b.WriteString(FormatQoSTable(QoSTable(2 * scale)))
			b.WriteString("shaper drain fairness (sustained voice + background burst, capacity 4):\n")
			b.WriteString(FormatQoSDrains(QoSDrainComparison(4 * scale)))
			return b.String()
		},
		Notes: []string{
			"(qos-priority must retain >= 90% of uncontended voice throughput;",
			" first-idle documents the head-of-line blocking the QoS layer removes)",
		},
	},
	"E13": {
		ID:    "E13",
		Name:  "loadcurve",
		Title: "open-loop load curves (loss/latency vs offered load)",
		Run: func(scale int) string {
			if scale <= 0 {
				scale = 12
			}
			return FormatLoadCurve(LoadCurve(LoadCurveConfig{BackgroundPackets: 16 * scale}))
		},
		Notes: []string{
			"(open-loop Poisson arrivals into a bounded shaper; the knee is where",
			" delivered throughput plateaus — voice must hold ~0% loss and a flat",
			" p99 past it under qos-priority while background loss climbs)",
		},
		Smoke: LoadSmoke,
	},
	"E14": {
		ID:    "E14",
		Name:  "wire",
		Title: "wire-level latency curves (loopback mccpserver)",
		Run: func(scale int) string {
			return FormatWireLatency(WireLatency(WireConfig{}))
		},
		Notes: []string{
			"(every arrival crosses the server protocol on a loopback transport;",
			" wire latency adds the client batching wait to the shard service)",
		},
		Smoke: WireSmoke,
	},
	"E15": {
		ID:    "E15",
		Name:  "reconfig",
		Title: "rolling reconfiguration under load (fleet agility cost)",
		Run: func(scale int) string {
			return FormatReconfigUnderLoad(ReconfigUnderLoad(ReconfigLoadConfig{}))
		},
		Notes: []string{
			"(a rolling Whirlpool swap drains each shard voice-first and measures",
			" every bitstream window on the serving shards; voice must hold ~0%",
			" loss with qos-priority keeping its p99 below first-idle's at every",
			" source speed, while background pays for the reservation)",
		},
		Smoke: ReconfigSmoke,
	},
	"E16": {
		ID:    "E16",
		Name:  "faults",
		Title: "fault curves (crash + churn under load, re-home and brownout)",
		Run: func(scale int) string {
			return FormatFaultCurves(FaultCurves(FaultConfig{}))
		},
		Notes: []string{
			"(a seeded schedule crashes shards mid-window at 0.9x saturation while",
			" sessions churn; the detector quarantines each frozen heartbeat at the",
			" next flush boundary, re-homes voice-first and browns out background;",
			" the zero-fault row is bit-identical to the E14 pipeline at 0.9x)",
		},
		Smoke: FaultSmoke,
	},
	"E17": {
		ID:    "E17",
		Name:  "heal",
		Title: "recovery curves (restart + rejoin per bitstream source, brownout lift)",
		Run: func(scale int) string {
			return FormatRecoveryCurves(RecoveryCurves(RecoveryConfig{}))
		},
		Notes: []string{
			"(the E16 crash with the restart loop armed: the corpse is rebuilt by",
			" streaming the base bitstream back in at each Table IV source speed,",
			" rejoined voice-first, and the brownout lifted class-by-class as the",
			" measured load fits under the restored capacity; the reconfiguration",
			" hierarchy survives the full stack — icap rejoins before ram before",
			" compact-flash — and the zero-fault baseline is E16's row verbatim)",
		},
		Smoke: HealSmoke,
	},
	"E18": {
		ID:    "E18",
		Name:  "stages",
		Title: "stage attribution (traced per-class latency decomposition)",
		Run: func(scale int) string {
			return FormatStageAttribution(StageAttribution(StageCurveConfig{}))
		},
		Notes: []string{
			"(the E13 sweep replayed with the lifecycle tracer at sample rate 1;",
			" each delivered packet's latency tiles exactly into class queue,",
			" scheduler, crossbar upload, core service and drain, so the traced",
			" percentiles reconcile bit-for-bit with E13's and the table shows",
			" where qos-priority buys voice its headroom: the queue stage)",
		},
		Smoke: ObsSmoke,
	},
}

// ExperimentIDs returns the registered experiment IDs in order.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(Experiments))
	for id := range Experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
