package harness

import (
	"fmt"
	"strings"

	"mccp/internal/faults"
	"mccp/internal/fleet"
	"mccp/internal/qos"
	"mccp/internal/server"
	"mccp/internal/sim"
)

// This file is experiment E16: fault curves. The E14 wire pipeline runs
// at a fixed offered load (0.9x saturation — busy but not yet over the
// knee) while a seeded fault schedule kills shards mid-window and a
// session-churn storm hammers the control plane. The server's fleet
// supervisor notices each frozen heartbeat at the next FLUSH boundary,
// quarantines the corpse, re-homes its sessions voice-first onto the
// survivors and sheds lower classes (brownout) when the surviving
// capacity no longer covers the offered load. The table sweeps fault
// intensity (crash count x churn rate) under first-idle vs qos-priority
// and reports per-class loss, wire p99, re-home latency and recovery
// time. Single connection on the loopback transport: every row is a
// pure function of (config, seed), and the zero-fault row is computed
// by the same code path as the E14 baseline — bit-identical to it.

// FaultRow is one fault intensity: how many distinct shards crash
// (in successive windows, mid-window) and how many sessions churn
// (close + re-open) at every window boundary once faults begin.
type FaultRow struct {
	Crashes int
	Churn   int
}

// FaultConfig parameterizes FaultCurves.
type FaultConfig struct {
	// Wire is the base pipeline configuration (cluster shape, mix,
	// windows, seed). Defaults differ from E14's in two places: Shards
	// defaults to 4 (a 2-shard cluster cannot absorb the 2-crash row)
	// and Sessions to 256 (8 runs per table).
	Wire WireConfig
	// Offered is the fixed load as a fraction of saturation (default
	// 0.9).
	Offered float64
	// Rows are the fault intensities (default none / 1 crash / 1 crash +
	// churn 8 / 2 crashes + churn 8).
	Rows []FaultRow
	// Policies are swept per row (default first-idle, qos-priority).
	Policies []string
	// FaultWindow is the window the first crash lands in; churn starts
	// at the same boundary (default Windows/3).
	FaultWindow int
}

// voiceRecovered is the per-window voice delivered fraction that counts
// as recovered in E16 and E17.
const voiceRecovered = 0.99

func (c *FaultConfig) fill() {
	if c.Wire.Shards <= 0 {
		c.Wire.Shards = 4
	}
	if c.Wire.Sessions <= 0 {
		c.Wire.Sessions = 256
	}
	if c.Wire.Windows <= 0 {
		c.Wire.Windows = 36
	}
	c.Wire.fill()
	if c.Offered <= 0 {
		c.Offered = 0.9
	}
	if len(c.Rows) == 0 {
		c.Rows = []FaultRow{{0, 0}, {1, 0}, {1, 8}, {2, 8}}
	}
	if len(c.Policies) == 0 {
		c.Policies = []string{"first-idle", "qos-priority"}
	}
	if c.FaultWindow <= 0 {
		c.FaultWindow = c.Wire.Windows / 3
		if c.FaultWindow == 0 {
			c.FaultWindow = 1
		}
	}
}

// FaultPoint is one (policy, fault intensity) measurement.
type FaultPoint struct {
	Policy string
	Row    FaultRow
	// WirePoint carries the per-class verdict/latency cells, digests and
	// cluster cycles, built by the same reduction as the E14 table.
	WirePoint
	// Failover is the fault plan the row ran under and what the
	// detector did about it.
	Failover
	// RecoveryCycles is the worst crash-to-recovered span on the wire
	// clock: from the crash's fire point to the end of the first window
	// whose voice delivered fraction is back at voiceRecovered.
	// Recovered reports every crash recovered within the horizon.
	RecoveryCycles sim.Time
	Recovered      bool
	// Churned counts storm-cycled sessions; Windows the per-window
	// tallies behind the recovery numbers.
	Churned uint64
	Windows []server.WindowLoad
}

// Failover is a fault drill's plan and fail-over log, shared by the
// E16 and E17 points.
type Failover struct {
	// Schedule is the printable fault plan.
	Schedule string
	// Rehomes is the detector's fail-over log; Moved/Lost/RehomeTook
	// aggregate it (RehomeTook is the worst single fail-over).
	Rehomes    []fleet.RehomeEvent
	Moved      int
	Lost       int
	RehomeTook sim.Time
}

// failoverOf summarizes a drill's schedule and fail-over log.
func failoverOf(sched faults.Schedule, rehomes []fleet.RehomeEvent) Failover {
	f := Failover{Schedule: sched.String(), Rehomes: rehomes}
	for _, ev := range rehomes {
		f.Moved += ev.Moved
		f.Lost += ev.Lost
		if ev.Took > f.RehomeTook {
			f.RehomeTook = ev.Took
		}
	}
	return f
}

// faultPolicy arms a server's supervisor with sched and sizes the
// brownout for offered x satMbps of the config's mix.
func (c WireConfig) faultPolicy(sched faults.Schedule, offered, satMbps float64) *fleet.Policy {
	var shares [qos.NumClasses]float64
	for _, p := range c.Mix {
		shares[p.Class] += p.Share
	}
	return &fleet.Policy{
		Schedule:        sched,
		OfferedMbps:     offered * satMbps,
		SatMbpsPerShard: satMbps / float64(c.Shards),
		Shares:          shares,
	}
}

// FaultResult is the E16 table.
type FaultResult struct {
	SaturationMbps float64
	Offered        float64
	Sessions       int
	Points         []FaultPoint // policy-major, row order
}

// FaultCurves runs E16: for each policy and fault intensity it starts a
// fresh loopback server with the fault plane wired in and replays the
// fixed-load mix through it.
func FaultCurves(cfg FaultConfig) FaultResult {
	cfg.fill()
	sat := cfg.Wire.saturation()
	res := FaultResult{SaturationMbps: sat, Offered: cfg.Offered, Sessions: cfg.Wire.Sessions}
	for _, pol := range cfg.Policies {
		for _, row := range cfg.Rows {
			res.Points = append(res.Points, FaultPointRun(pol, row, sat, cfg))
		}
	}
	return res
}

// FaultPointRun measures one (policy, fault intensity) point.
func FaultPointRun(policy string, row FaultRow, satMbps float64, cfg FaultConfig) FaultPoint {
	return faultPointRun(policy, row, satMbps, cfg, nil)
}

// faultPointRun is FaultPointRun with an inspection hook that runs while
// the server is still open — the obs smoke gate reads flight-recorder
// postmortems through it before teardown.
func faultPointRun(policy string, row FaultRow, satMbps float64, cfg FaultConfig,
	inspect func(*server.Server)) FaultPoint {
	cfg.fill()
	wire := cfg.Wire
	wire.Policy = policy

	sched := faults.Schedule{Seed: wire.Seed}
	if row.Crashes > 0 {
		var err error
		sched, err = faults.Plan(faults.PlanConfig{
			Seed:         wire.Seed,
			Shards:       wire.Shards,
			Windows:      wire.Windows,
			Crashes:      row.Crashes,
			FaultWindow:  cfg.FaultWindow,
			WindowCycles: wire.WindowCycles,
		})
		if err != nil {
			panic(err) // experiment drivers pass literal configurations
		}
	}
	load := wire.loadConfig(cfg.Offered, satMbps)
	load.WindowTallies, load.ChurnSessions, load.ChurnFrom = true, row.Churn, cfg.FaultWindow
	srv, res := wire.serve(wire.faultPolicy(sched, cfg.Offered, satMbps), load)
	defer srv.Close()

	point := FaultPoint{
		Policy:    policy,
		Row:       row,
		WirePoint: buildWirePoint(cfg.Offered, satMbps, wire.Sessions, res),
		Failover:  failoverOf(sched, srv.FaultReport()),
		Churned:   res.Churned,
		Windows:   res.Windows,
	}
	point.RecoveryCycles, point.Recovered = recoveryOf(sched, wire.WindowCycles, res.Windows)
	if inspect != nil {
		inspect(srv)
	}
	return point
}

// recoveryOf derives the worst crash recovery span: for each scheduled
// crash, the wire-clock distance from its fire point to the end of the
// first window (at or after the crash window) whose voice delivered
// fraction is back at voiceRecovered. A crash with no such window inside
// the horizon reports recovered == false.
func recoveryOf(sched faults.Schedule, windowCycles sim.Time, wins []server.WindowLoad) (sim.Time, bool) {
	var worst sim.Time
	recovered := true
	for _, e := range sched.Events {
		if e.Kind != faults.ShardCrash {
			continue
		}
		crashAt := sim.Time(e.Window)*windowCycles + e.Offset
		found := false
		for w := e.Window; w < len(wins); w++ {
			if wins[w].DeliveredFrac(qos.Voice) >= voiceRecovered {
				if d := sim.Time(w+1)*windowCycles - crashAt; d > worst {
					worst = d
				}
				found = true
				break
			}
		}
		if !found {
			recovered = false
		}
	}
	return worst, recovered
}

// FormatFaultCurves renders the E16 table.
func FormatFaultCurves(r FaultResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault curves (E16): loopback mccpserver at %.1fx saturation (~%.0f Mbps), %d sessions, crash + churn under load\n",
		r.Offered, r.SaturationMbps, r.Sessions)
	fmt.Fprintf(&b, "recovery = crash fire point to the first window with voice delivered back >= 99%%; rehome = worst fail-over's virtual-time cost\n")
	fmt.Fprintf(&b, "%-12s %7s %6s | %8s %8s %8s | %10s | %6s %5s %12s %12s\n",
		"policy", "crashes", "churn", "v loss%", "bg loss%", "loss%", "v p99 cyc", "moved", "lost", "rehome cyc", "recover cyc")
	for _, p := range r.Points {
		v, bg := p.Classes.Cell(qos.Voice), p.Classes.Cell(qos.Background)
		rec := cyclesOrDNF(p.RecoveryCycles, p.Recovered)
		if p.Recovered && p.Row.Crashes == 0 {
			rec = "-"
		}
		fmt.Fprintf(&b, "%-12s %7d %6d | %7.2f%% %7.2f%% %7.2f%% | %10d | %6d %5d %12d %12s\n",
			p.Policy, p.Row.Crashes, p.Row.Churn,
			100*v.LossFrac, 100*bg.LossFrac, 100*p.TotalLossFrac,
			v.P99, p.Moved, p.Lost, p.RehomeTook, rec)
	}
	return b.String()
}

// FaultSmoke runs the one-row loopback E16 gate CI checks: with 1 of 4
// shards crashed mid-load (plus an 8-session churn storm) at 0.9x
// saturation under qos-priority, the crash must be failed over, every
// session on the corpse must re-home (none lost), voice loss must stay
// within 1%, and voice delivery must recover within 3 windows of the
// crash. Small on purpose: 64 sessions, 24 short windows. Measured is
// the FaultPoint.
func FaultSmoke() Verdict {
	cfg := FaultConfig{
		Wire: WireConfig{
			Shards:       4,
			Sessions:     64,
			WindowCycles: 4096,
			Windows:      24,
		},
		Rows:        []FaultRow{{Crashes: 1, Churn: 8}},
		Policies:    []string{"qos-priority"},
		FaultWindow: 8,
	}
	res := FaultCurves(cfg)
	p := res.Points[0]
	voice, bg := p.Classes.Cell(qos.Voice), p.Classes.Cell(qos.Background)
	const recoveryLimit = 3 * 4096
	return Verdict{
		Gate: "faults",
		Checks: []Check{
			check("voice loss", voice.LossFrac <= 0.01, "%.2f%% (limit 1%%)", 100*voice.LossFrac),
			check("fail-overs", len(p.Rehomes) >= 1, "%d (need >= 1)", len(p.Rehomes)),
			check("sessions lost", p.Lost == 0, "%d of %d re-homed (limit 0)", p.Lost, p.Moved),
			check("voice recovery", p.Recovered && p.RecoveryCycles <= recoveryLimit,
				"%s cycles (limit %d)", cyclesOrDNF(p.RecoveryCycles, p.Recovered), recoveryLimit),
		},
		Notes: []string{fmt.Sprintf("crashes %d churn %d: %d sessions churned, background loss %.2f%%, worst rehome %d cyc",
			p.Row.Crashes, p.Row.Churn, p.Churned, 100*bg.LossFrac, p.RehomeTook)},
		Measured: p,
	}
}

// cyclesOrDNF prints a span, or DNF when it never completed.
func cyclesOrDNF(c sim.Time, done bool) string {
	if !done {
		return "DNF"
	}
	return fmt.Sprintf("%d", c)
}
