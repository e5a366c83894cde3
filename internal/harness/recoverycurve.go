package harness

import (
	"fmt"
	"strings"

	"mccp/internal/faults"
	"mccp/internal/fleet"
	"mccp/internal/qos"
	"mccp/internal/reconfig"
	"mccp/internal/server"
	"mccp/internal/sim"
)

// This file is experiment E17: recovery curves. E16 measured the fall —
// crash, detection, fail-over, brownout floor. E17 measures the climb
// back: with the supervisor's restart armed, the quarantined corpse is
// rebuilt by streaming the base bitstream back in at one of the paper's
// Table IV source speeds (CompactFlash, staging RAM, or the ICAP-rate
// ceiling), rejoined to the pool, reloaded voice-first, and the brownout
// mask lifted class-by-class as the measured load fits back under the
// restored capacity. The table sweeps the bitstream source at a fixed
// 0.9x-saturation load and reports the full arc per source: restart
// duration (scaled and at true paper speed), rejoin window, voice
// recovery, and time back to full delivered capacity. The paper's
// reconfiguration-speed hierarchy should survive the trip through the
// whole serving stack: ICAP rejoins before RAM rejoins before
// CompactFlash. Single loopback connection, seeded schedule: the whole
// drill is a pure function of (config, seed), and the zero-fault
// baseline row is computed by E16's own FaultPointRun — bit-identical
// to its zero row.

// RecoveryConfig parameterizes RecoveryCurves.
type RecoveryConfig struct {
	// Wire is the base pipeline configuration; defaults match E16's
	// (4 shards, 256 sessions, 36 windows) so the zero-fault baseline
	// is E16's zero-fault row verbatim.
	Wire WireConfig
	// Offered is the fixed load as a fraction of saturation (default
	// 0.9 — the E16 operating point).
	Offered float64
	// Sources are the bitstream sources swept, slowest first (default
	// the paper's three: compact-flash, ram, icap).
	Sources []reconfig.Source
	// TimeScale compresses each source's reload time onto the simulated
	// window horizon (default 4096): the virtual restart takes
	// 1/TimeScale of the true reload, and TrueRestartMillis reports the
	// unscaled figure. The hierarchy between sources is unaffected.
	TimeScale float64
	// Policies are swept per source (default qos-priority only — the
	// policy E16 showed survives the fall with zero voice loss).
	Policies []string
	// FaultWindow is the window the crash lands in (default Windows/3).
	FaultWindow int
}

// capacityFrac is the fraction of the pre-crash delivered rate that
// counts as full capacity restored.
const capacityFrac = 0.95

func (c *RecoveryConfig) fill() {
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
	if len(c.Sources) == 0 {
		c.Sources = reconfig.Sources()
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 4096
	}
	if len(c.Policies) == 0 {
		c.Policies = []string{"qos-priority"}
	}
	if c.FaultWindow <= 0 {
		c.FaultWindow = c.Wire.Windows / 3
		if c.FaultWindow == 0 {
			c.FaultWindow = 1
		}
	}
}

// RecoveryPoint is one (policy, bitstream source) drill.
type RecoveryPoint struct {
	Policy string
	// Source is the bitstream source the restart streamed from.
	Source string
	// WirePoint carries the horizon-wide per-class cells and digests,
	// built by the same reduction as the E14/E16 tables.
	WirePoint
	// Failover is the fault plan and the fail-over log with its
	// aggregates (as in E16).
	Failover
	// Heals is the recovery plane's action log: the restart, the
	// rebalance back, and each brownout lift.
	Heals []fleet.HealEvent
	// RestartCycles is the bitstream reload's virtual duration on the
	// rebuilt shard's timeline (at the TimeScale-compressed source);
	// TrueRestartMillis undoes the compression — the reload at the
	// paper's real source speed, in milliseconds. RejoinWindow is the
	// boundary the shard came back at (-1: never rejoined).
	RestartCycles     sim.Time
	TrueRestartMillis float64
	RejoinWindow      int
	// BrownoutImposed reports the fail-over shed at least one class;
	// BrownoutLifted that the mask was fully clear by the horizon.
	BrownoutImposed bool
	BrownoutLifted  bool
	// RecoveryCycles is the crash-to-voice-recovered span (E16's
	// definition); CapacityCycles the crash to the first post-rejoin
	// window delivering capacityFrac of the pre-crash rate.
	RecoveryCycles   sim.Time
	Recovered        bool
	CapacityCycles   sim.Time
	CapacityRestored bool
	// Windows is the per-window tally series behind the spans.
	Windows []server.WindowLoad
}

// RecoveryResult is the E17 table.
type RecoveryResult struct {
	SaturationMbps float64
	Offered        float64
	Sessions       int
	TimeScale      float64
	// Baseline is the zero-fault row, computed by E16's FaultPointRun
	// so the two experiments' baselines are bit-identical.
	Baseline FaultPoint
	// Points are policy-major, sources in the configured order.
	Points []RecoveryPoint
}

// RecoveryCurves runs E17: the zero-fault baseline through the E16
// pipeline, then one full crash-and-recovery drill per (policy, source).
func RecoveryCurves(cfg RecoveryConfig) RecoveryResult {
	cfg.fill()
	sat := cfg.Wire.saturation()
	res := RecoveryResult{
		SaturationMbps: sat,
		Offered:        cfg.Offered,
		Sessions:       cfg.Wire.Sessions,
		TimeScale:      cfg.TimeScale,
	}
	base := FaultConfig{
		Wire:        cfg.Wire,
		Offered:     cfg.Offered,
		FaultWindow: cfg.FaultWindow,
	}
	res.Baseline = FaultPointRun(cfg.Policies[0], FaultRow{}, sat, base)
	for _, pol := range cfg.Policies {
		for _, src := range cfg.Sources {
			res.Points = append(res.Points, RecoveryPointRun(pol, src, sat, cfg))
		}
	}
	return res
}

// RecoveryPointRun measures one (policy, source) drill: one shard
// crashes mid-window at the fixed load, the detector fails it over and
// browns out, the restart loop rebuilds it from src and rejoins it, and
// the point records how long the climb back took.
func RecoveryPointRun(policy string, src reconfig.Source, satMbps float64, cfg RecoveryConfig) RecoveryPoint {
	cfg.fill()
	wire := cfg.Wire
	wire.Policy = policy

	sched, err := faults.Plan(faults.PlanConfig{
		Seed:         wire.Seed,
		Shards:       wire.Shards,
		Windows:      wire.Windows,
		Crashes:      1,
		FaultWindow:  cfg.FaultWindow,
		WindowCycles: wire.WindowCycles,
	})
	if err != nil {
		panic(err) // experiment drivers pass literal configurations
	}
	fp := wire.faultPolicy(sched, cfg.Offered, satMbps)
	fp.RestartSource, fp.WindowCycles = src.Scaled(cfg.TimeScale), wire.WindowCycles
	load := wire.loadConfig(cfg.Offered, satMbps)
	load.WindowTallies = true
	srv, res := wire.serve(fp, load)
	defer srv.Close()

	point := RecoveryPoint{
		Policy:       policy,
		Source:       src.Name,
		WirePoint:    buildWirePoint(cfg.Offered, satMbps, wire.Sessions, res),
		Failover:     failoverOf(sched, srv.FaultReport()),
		Heals:        srv.HealReport(),
		RejoinWindow: -1,
		Windows:      res.Windows,
	}
	for _, ev := range point.Rehomes {
		for _, deny := range ev.Deny {
			if deny {
				point.BrownoutImposed = true
			}
		}
	}
	// The final mask on record decides whether the brownout fully
	// lifted; every heal event carries the mask in force after it ran.
	finalDeny := [qos.NumClasses]bool{}
	if n := len(point.Rehomes); n > 0 {
		finalDeny = point.Rehomes[n-1].Deny
	}
	for _, ev := range point.Heals {
		if ev.Restarted {
			point.RestartCycles = ev.RestartCycles
			point.RejoinWindow = ev.Window
		}
		finalDeny = ev.Deny
	}
	point.BrownoutLifted = true
	for _, deny := range finalDeny {
		if deny {
			point.BrownoutLifted = false
		}
	}
	point.TrueRestartMillis = float64(point.RestartCycles) * cfg.TimeScale / sim.DefaultFreqHz * 1e3
	point.RecoveryCycles, point.Recovered = recoveryOf(sched, wire.WindowCycles, res.Windows)
	point.CapacityCycles, point.CapacityRestored = capacityOf(sched, wire.WindowCycles,
		cfg.FaultWindow, point.RejoinWindow, res.Windows)
	return point
}

// capacityOf derives the crash-to-full-capacity span: the pre-crash
// delivered rate is the mean per-window OK count over the steady windows
// before the crash (skipping two warm-up windows), and capacity counts
// as restored at the end of the first window at or after the rejoin
// delivering at least capacityFrac of that rate. rejoin < 0 (never rejoined)
// reports restored == false.
func capacityOf(sched faults.Schedule, windowCycles sim.Time,
	faultWindow, rejoin int, wins []server.WindowLoad) (sim.Time, bool) {
	if rejoin < 0 || len(wins) == 0 {
		return 0, false
	}
	var crashAt sim.Time
	for _, e := range sched.Events {
		if e.Kind == faults.ShardCrash {
			crashAt = sim.Time(e.Window)*windowCycles + e.Offset
			break
		}
	}
	total := func(w server.WindowLoad) uint64 {
		var ok uint64
		for _, cw := range w.Classes {
			ok += cw.OK
		}
		return ok
	}
	lo := 2
	if lo >= faultWindow {
		lo = 0
	}
	var steady float64
	for w := lo; w < faultWindow && w < len(wins); w++ {
		steady += float64(total(wins[w]))
	}
	if n := faultWindow - lo; n > 0 {
		steady /= float64(n)
	}
	if steady <= 0 {
		return 0, false
	}
	for w := rejoin; w < len(wins); w++ {
		if float64(total(wins[w])) >= capacityFrac*steady {
			return sim.Time(w+1)*windowCycles - crashAt, true
		}
	}
	return 0, false
}

// FormatRecoveryCurves renders the E17 table.
func FormatRecoveryCurves(r RecoveryResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Recovery curves (E17): loopback mccpserver at %.1fx saturation (~%.0f Mbps), %d sessions, crash -> restart -> rejoin per bitstream source (reload time-compressed %gx)\n",
		r.Offered, r.SaturationMbps, r.Sessions, r.TimeScale)
	fmt.Fprintf(&b, "restart = bitstream reload on the rebuilt shard (true ms at paper source speed); recover = crash to voice back >= 99%%; capacity = crash to delivered rate back >= 95%% of pre-crash\n")
	fmt.Fprintf(&b, "%-12s %-13s | %8s %8s | %6s %5s | %12s %10s %6s | %12s %12s %8s\n",
		"policy", "source", "v loss%", "loss%", "moved", "lost",
		"restart cyc", "true ms", "rejoin", "recover cyc", "capacity cyc", "lifted")
	base := r.Baseline
	fmt.Fprintf(&b, "%-12s %-13s | %7.2f%% %7.2f%% | %6d %5d | %12s %10s %6s | %12s %12s %8s\n",
		base.Policy, "(no fault)", 100*base.Classes.Cell(qos.Voice).LossFrac, 100*base.TotalLossFrac,
		base.Moved, base.Lost, "-", "-", "-", "-", "-", "-")
	for _, p := range r.Points {
		rejoin := fmt.Sprintf("%d", p.RejoinWindow)
		if p.RejoinWindow < 0 {
			rejoin = "DNF"
		}
		lifted := "yes"
		if !p.BrownoutLifted {
			lifted = "NO"
		}
		fmt.Fprintf(&b, "%-12s %-13s | %7.2f%% %7.2f%% | %6d %5d | %12d %10.1f %6s | %12s %12s %8s\n",
			p.Policy, p.Source, 100*p.Classes.Cell(qos.Voice).LossFrac, 100*p.TotalLossFrac,
			p.Moved, p.Lost, p.RestartCycles, p.TrueRestartMillis, rejoin,
			cyclesOrDNF(p.RecoveryCycles, p.Recovered), cyclesOrDNF(p.CapacityCycles, p.CapacityRestored), lifted)
	}
	return b.String()
}

// HealSmoke runs the one-drill loopback E17 gate CI checks: with 1 of
// 4 shards crashed mid-load at 0.9x saturation under qos-priority and
// the restart loop armed (icap source), voice must ride through both
// the fall and the climb within 1% loss and zero lost sessions, the
// shard must rebuild and rejoin, the brownout mask must be fully lifted
// by the horizon, voice delivery must recover within 3 windows of the
// crash, and the delivered rate must climb back to the pre-crash level.
// Small on purpose: 64 sessions, 24 short windows. Measured is the
// RecoveryPoint.
func HealSmoke() Verdict {
	cfg := RecoveryConfig{
		Wire: WireConfig{
			Shards:       4,
			Sessions:     64,
			WindowCycles: 4096,
			Windows:      24,
		},
		Sources:     []reconfig.Source{reconfig.FastICAP},
		FaultWindow: 8,
	}
	cfg.fill()
	p := RecoveryPointRun(cfg.Policies[0], cfg.Sources[0], cfg.Wire.saturation(), cfg)
	restarts, rebalanced := 0, 0
	for _, ev := range p.Heals {
		if ev.Restarted {
			restarts++
		}
		rebalanced += ev.Rebalanced
	}
	voice, bg := p.Classes.Cell(qos.Voice), p.Classes.Cell(qos.Background)
	lifted := "lifted"
	if !p.BrownoutLifted {
		lifted = "NOT lifted"
	}
	const recoveryLimit = 3 * 4096
	return Verdict{
		Gate: "heal",
		Checks: []Check{
			check("voice loss", voice.LossFrac <= 0.01, "%.2f%% (limit 1%%)", 100*voice.LossFrac),
			check("sessions lost", p.Lost == 0, "%d (limit 0)", p.Lost),
			check("restarts", restarts >= 1, "%d rejoining at window %d (need >= 1)", restarts, p.RejoinWindow),
			check("brownout", p.BrownoutLifted, "%s", lifted),
			check("voice recovery", p.Recovered && p.RecoveryCycles <= recoveryLimit,
				"%s cycles (limit %d)", cyclesOrDNF(p.RecoveryCycles, p.Recovered), recoveryLimit),
			check("capacity back", p.CapacityRestored, "in %s cycles", cyclesOrDNF(p.CapacityCycles, p.CapacityRestored)),
		},
		Notes: []string{fmt.Sprintf("source %s: restart %d cyc (%.1f ms at true speed), %d sessions rebalanced back, background loss %.2f%%",
			p.Source, p.RestartCycles, p.TrueRestartMillis, rebalanced, 100*bg.LossFrac)},
		Measured: p,
	}
}
