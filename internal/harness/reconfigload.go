package harness

import (
	"fmt"
	"strings"

	"mccp/internal/arrivals"
	"mccp/internal/cluster"
	"mccp/internal/fleet"
	"mccp/internal/qos"
	"mccp/internal/reconfig"
	"mccp/internal/sim"
)

// This file is experiment E15: the cost of agility under traffic. The
// paper's headline capability — swap AES for Whirlpool via an 89–97 kB
// partial bitstream while the other cores keep serving — is measured
// here at fleet scope: a rolling per-shard swap drains each shard
// voice-first, rewrites its reconfigurable core at one of the paper's
// bitstream-source speeds, and re-admits it, while the remaining shards
// carry the full open-loop arrival stream. Each swap's bitstream window
// doubles as a measurement window on the serving shards, so the table
// answers "what happens to voice during the 63–416 ms the fleet is one
// shard short?" at each source speed and under both dispatch policies.

// ReconfigLoadConfig parameterizes ReconfigUnderLoad.
type ReconfigLoadConfig struct {
	// Policies are the shard dispatch policies swept (default first-idle
	// then qos-priority, the E13 contrast).
	Policies []string
	// Sources are the bitstream sources swept (default the paper's
	// CompactFlash and staging RAM plus the native-ICAP fast source).
	Sources []reconfig.Source
	// Shards and CoresPerShard size the cluster (defaults 4 and 4).
	Shards, CoresPerShard int
	// Offered is the cluster-total offered load as a fraction of the
	// all-shards-serving saturation capacity (default 0.9 — healthy
	// with every shard up, ~1.2x per-shard saturation while one of four
	// shards is draining).
	Offered float64
	// TimeScale compresses the bitstream windows: each source is sped up
	// by up to this factor (default 64) so a CompactFlash swap (~72M
	// cycles at full scale) stays simulable, but never so far that a
	// window drops below minSwapWindow. Reported true durations are
	// always at full scale.
	TimeScale float64
	// Process names the arrival process (default poisson); Mix the class
	// mix (default LoadMix).
	Process string
	Mix     []arrivals.ClassProfile
	// Capacity and QueueDepth size each shard's shaper (defaults 32 and
	// 64 — wider than the E13 device-scope defaults so the class-blind
	// in-flight gate does not dominate voice latency and the dispatch
	// policies can differentiate, the same contrast E13 shows past the
	// knee: qos-priority holds voice p99 lower and flatter while
	// first-idle's climbs).
	Capacity, QueueDepth int
	Seed                 uint64
}

// swapTarget is the engine swapped in on core 0 of every shard: the
// paper's §VII.B demonstration, where the fleet gains hash capability
// and pays one AES core per shard.
const swapTarget = reconfig.EngineWhirlpool

// minSwapWindow floors a compressed swap window so fast sources still
// yield a statistically meaningful measurement.
const minSwapWindow sim.Time = 50000

func (c *ReconfigLoadConfig) fill() {
	if len(c.Policies) == 0 {
		c.Policies = []string{"first-idle", "qos-priority"}
	}
	if len(c.Sources) == 0 {
		c.Sources = reconfig.Sources()
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.CoresPerShard <= 0 {
		c.CoresPerShard = 4
	}
	if c.Offered <= 0 {
		c.Offered = 0.9
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 64
	}
	if c.Process == "" {
		c.Process = arrivals.ProcPoisson
	}
	if len(c.Mix) == 0 {
		c.Mix = LoadMix
	}
	if c.Capacity <= 0 {
		c.Capacity = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Seed == 0 {
		c.Seed = 31
	}
}

// effectiveScale compresses src by at most cfg.TimeScale while keeping
// the swap window at or above the floor.
func (c ReconfigLoadConfig) effectiveScale(src reconfig.Source) float64 {
	window := float64(fleet.SwapWindow(swapTarget, src))
	scale := c.TimeScale
	if floor := window / float64(minSwapWindow); floor < scale {
		scale = floor
	}
	if scale < 1 {
		scale = 1
	}
	return scale
}

// ReconfigRun is one (policy, source) measurement.
type ReconfigRun struct {
	Policy string
	Source string
	// TrueWindowMillis is the full-scale bitstream window (stream-in plus
	// controller image rewrite) at the modeled clock — the paper's Table
	// IV timescale. SwapCycles is the compressed virtual duration each
	// leg actually simulated, and Scale the compression used.
	TrueWindowMillis float64
	SwapCycles       sim.Time
	Scale            float64
	// Legs counts per-shard swaps; Drained/Readmitted total the sessions
	// re-homed around them (voice-first order).
	Legs, Drained, Readmitted int
	// Baseline fields measure an equal window with every shard serving,
	// before any swap; During fields cover the swap legs.
	BaselineVoiceP99  sim.Time
	BaselineDelivered float64
	DuringDelivered   float64
	// Classes aggregate every swap leg's window (the traffic served
	// while a shard was down). Percentiles are over the merged samples
	// of every leg — the swap phase as one distribution, not the worst
	// single window (a fully saturated leg serializes dispatch and
	// erases the policy contrast; merging keeps it visible). The legs
	// differ in length, so the cells carry no rates.
	Classes qos.Cells
	// Digest folds every measurement window's arrival digest (baseline,
	// each leg, recovery) — the determinism witness.
	Digest uint64
	// Errors counts completions with unexpected verdicts (always 0 in a
	// healthy run).
	Errors int
}

// ReconfigLoadResult is the full E15 sweep.
type ReconfigLoadResult struct {
	// SaturationMbps is the calibrated per-shard capacity; OfferedMbps
	// the cluster-total offered load (Offered x Shards x saturation).
	SaturationMbps float64
	OfferedMbps    float64
	Offered        float64
	Shards         int
	Target         string
	Runs           []ReconfigRun
}

// ReconfigUnderLoad runs E15: for each policy and bitstream source, a
// rolling Whirlpool swap across every shard under a sustained open-loop
// arrival stream, measuring the traffic served during each bitstream
// window. Deterministic: everything runs in virtual time on the
// splittable PRNG.
func ReconfigUnderLoad(cfg ReconfigLoadConfig) ReconfigLoadResult {
	cfg.fill()
	sat := SaturationMbps(cfg.Mix) * float64(cfg.CoresPerShard) / 4
	res := ReconfigLoadResult{
		SaturationMbps: sat,
		OfferedMbps:    cfg.Offered * sat * float64(cfg.Shards),
		Offered:        cfg.Offered,
		Shards:         cfg.Shards,
		Target:         swapTarget.String(),
	}
	for _, pol := range cfg.Policies {
		for _, src := range cfg.Sources {
			res.Runs = append(res.Runs, reconfigRun(pol, src, sat, cfg))
		}
	}
	return res
}

func reconfigRun(policy string, src reconfig.Source, satPerShard float64, cfg ReconfigLoadConfig) ReconfigRun {
	cl, err := cluster.New(cluster.Config{
		Shards:        cfg.Shards,
		CoresPerShard: cfg.CoresPerShard,
		Router:        cluster.RouterLeastLoaded,
		Policy:        policy,
		QueueRequests: true,
		Seed:          cfg.Seed,
		Shape:         true,
		Shaper: qos.Config{
			Capacity:   cfg.Capacity,
			QueueDepth: cfg.QueueDepth,
		},
	})
	if err != nil {
		panic(err) // experiment drivers pass literal configurations
	}
	defer cl.Close()

	scale := cfg.effectiveScale(src)
	scaled := src.Scaled(scale)
	run := ReconfigRun{
		Policy:           policy,
		Source:           src.Name,
		TrueWindowMillis: float64(fleet.SwapWindow(swapTarget, src)) / sim.DefaultFreqHz * 1e3,
		Scale:            scale,
		Digest:           arrivals.DigestInit,
	}

	runner, err := cluster.NewOpenLoopRunner(cl, cluster.OpenLoopRunnerConfig{
		Process:     cfg.Process,
		Profiles:    cfg.Mix,
		OfferedMbps: cfg.Offered * satPerShard * float64(cfg.Shards),
		Seed:        cfg.Seed,
	})
	if err != nil {
		panic(err)
	}
	f := fleet.New(cl)
	window := fleet.SwapWindow(swapTarget, scaled)
	run.SwapCycles = window

	fold := func(w cluster.OpenLoopWindow) {
		run.Digest = (run.Digest ^ w.Digest) * 0x100000001b3
		run.Errors += w.Errors
	}

	// Baseline: an equal window with every shard serving.
	base, err := runner.RunWindow(window)
	if err != nil {
		panic(err)
	}
	fold(base)
	run.BaselineVoiceP99 = base.Classes.Cell(qos.Voice).P99
	run.BaselineDelivered = base.Classes.DeliveredMbps()

	// The rolling swap: each leg's during hook serves one bitstream
	// window on the remaining shards.
	var legStats [qos.NumClasses]*qos.ClassStats
	var legSamples [qos.NumClasses][]sim.Time
	legs := 0
	reports, err := f.RollingSwap(0, swapTarget, scaled,
		func(shard int, legWindow sim.Time) error {
			w, err := runner.RunWindow(legWindow)
			if err != nil {
				return err
			}
			fold(w)
			legs++
			run.DuringDelivered += w.Classes.DeliveredMbps()
			for _, c := range w.Classes {
				if legStats[c.Class] == nil {
					legStats[c.Class] = &qos.ClassStats{Class: c.Class}
				}
				legStats[c.Class].Accumulate(c.Stats())
				legSamples[c.Class] = append(legSamples[c.Class], c.Samples...)
			}
			return nil
		})
	if err != nil {
		panic(err)
	}
	for _, rep := range reports {
		run.Legs++
		run.Drained += rep.Drained
		run.Readmitted += rep.Readmitted
	}
	if legs > 0 {
		run.DuringDelivered /= float64(legs)
	}
	// Recovery window: every shard back, digests must keep folding so a
	// post-swap divergence cannot hide.
	rec, err := runner.RunWindow(window)
	if err != nil {
		panic(err)
	}
	fold(rec)

	for _, class := range qos.Classes() {
		if st := legStats[class]; st != nil {
			run.Classes = append(run.Classes, qos.NewClassCell(*st, legSamples[class], 0, 0, 0))
		}
	}
	return run
}

// FormatReconfigUnderLoad renders the E15 sweep.
func FormatReconfigUnderLoad(r ReconfigLoadResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Rolling reconfiguration under load (E15): %s swap across %d shards at %.2fx saturation (%.0f Mbps offered)\n",
		r.Target, r.Shards, r.Offered, r.OfferedMbps)
	fmt.Fprintf(&b, "each bitstream window is measured on the serving shards; true window at the paper's source speeds\n")
	fmt.Fprintf(&b, "%-14s %-14s %9s | %9s %9s | %8s %10s %8s | %8s %10s\n",
		"policy", "source", "window ms", "base Mbps", "del Mbps",
		"v loss%", "v p99 cyc", "v miss", "bg loss%", "bg p99 cyc")
	for _, run := range r.Runs {
		v, bg := run.Classes.Cell(qos.Voice), run.Classes.Cell(qos.Background)
		fmt.Fprintf(&b, "%-14s %-14s %9.1f | %9.0f %9.0f | %7.2f%% %10d %8d | %7.2f%% %10d\n",
			run.Policy, run.Source, run.TrueWindowMillis,
			run.BaselineDelivered, run.DuringDelivered,
			100*v.LossFrac, v.P99, v.Misses, 100*bg.LossFrac, bg.P99)
	}
	return b.String()
}

// ReconfigSmoke runs the CI mini rolling-swap gate: a two-shard cluster
// under qos-priority swaps each shard's core from staging RAM while the
// other carries the stream at ~1.8x its own saturation — voice must
// lose at most 1% and its during-swap p99 must stay within 3x the
// all-shards-serving baseline plus 8000 cycles of scheduling slack.
// Deliberately small so the gate costs seconds. Measured is the
// ReconfigRun.
func ReconfigSmoke() Verdict {
	res := ReconfigUnderLoad(ReconfigLoadConfig{
		Policies:  []string{"qos-priority"},
		Sources:   []reconfig.Source{reconfig.StagingRAM},
		Shards:    2,
		TimeScale: 256,
	})
	run := res.Runs[0]
	voice, bg := run.Classes.Cell(qos.Voice), run.Classes.Cell(qos.Background)
	p99Limit := 3*run.BaselineVoiceP99 + 8000
	return Verdict{
		Gate: "reconfig",
		Checks: []Check{
			check("voice loss during swap", voice.LossFrac <= 0.01, "%.2f%% (limit 1%%)", 100*voice.LossFrac),
			check("voice p99 during swap", voice.P99 <= p99Limit, "%d cycles (baseline %d, limit %d)",
				voice.P99, run.BaselineVoiceP99, p99Limit),
		},
		Notes: []string{fmt.Sprintf("source %s (%.1f ms window): delivered %.0f -> %.0f Mbps during swap, background loss %.2f%%",
			run.Source, run.TrueWindowMillis, run.BaselineDelivered, run.DuringDelivered, 100*bg.LossFrac)},
		Measured: run,
	}
}
