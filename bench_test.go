// Root benchmark suite: one bench per table / figure / quantitative result
// of the paper's evaluation (§VII). Each benchmark drives the full
// simulated MCCP and reports paper-aligned custom metrics (Mbps at the
// modeled 190 MHz, cycles per block, milliseconds per reconfiguration)
// alongside the usual ns/op of the simulation itself.
//
// Experiment index (see DESIGN.md / EXPERIMENTS.md):
//
//	E1 BenchmarkLoopTimes_*        loop-cycle formulas of §VII.A
//	E2 BenchmarkTable2_*           Table II throughput cells
//	E3 BenchmarkTable3_*           Table III comparison (ours + baselines)
//	E4 BenchmarkTable4_*           Table IV partial reconfiguration
//	E5 BenchmarkLatency_*          §VII.A latency-vs-throughput trade-off
//	E8 BenchmarkResources          §VII.A area/frequency result
//	E9 BenchmarkSchedPolicy_*      §VIII scheduling-policy extension
//	E10 BenchmarkAblation_*        design-choice ablations
//	E11 BenchmarkCluster           sharded multi-MCCP service-layer scaling
//	E12 BenchmarkQoS_*             §VIII QoS: overload retention + drains
package mccp_test

import (
	"fmt"
	"testing"
	"time"

	"mccp/internal/aes"
	"mccp/internal/baseline"
	"mccp/internal/bits"
	"mccp/internal/cluster"
	"mccp/internal/cryptocore"
	"mccp/internal/fpga"
	"mccp/internal/ghash"
	"mccp/internal/harness"
	"mccp/internal/obs"
	"mccp/internal/qos"
	"mccp/internal/reconfig"
	"mccp/internal/sim"
	"mccp/internal/trafficgen"
)

// benchThroughput measures one Table II cell per iteration. system_Mbps is
// the aggregate with all instances concurrently contending for the
// crossbar; paper_methodology_Mbps scales a single-instance run by the
// instance count, which is how Table II's NxM columns are built.
func benchThroughput(b *testing.B, fam cryptocore.Family, m harness.Mapping, keyBytes int) {
	b.Helper()
	b.ReportAllocs()
	var system float64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		system = harness.MeasureThroughput(fam, m, keyBytes, harness.PacketBytes, 8*m.Streams)
	}
	wall := time.Since(start).Seconds()
	perInstance := system
	if m.Streams > 1 {
		single := harness.Mapping{Name: m.Name, Streams: 1, Split: m.Split}
		perInstance = harness.MeasureThroughput(fam, single, keyBytes, harness.PacketBytes, 8)
	}
	b.ReportMetric(system, "system_Mbps")
	b.ReportMetric(perInstance*float64(m.Streams), "paper_methodology_Mbps")
	if wall > 0 {
		// Wall-clock payload throughput of the simulator itself on this
		// host (nondeterministic, never gated — see benchfmt).
		payloadBits := float64(b.N) * float64(8*m.Streams) * harness.PacketBytes * 8
		b.ReportMetric(payloadBits/wall/1e6, "host_Mbps")
	}
}

// --- E2: Table II -----------------------------------------------------------

func BenchmarkTable2_GCM_1core_128(b *testing.B) {
	benchThroughput(b, cryptocore.FamilyGCM, harness.GCM1, 16)
}
func BenchmarkTable2_GCM_1core_192(b *testing.B) {
	benchThroughput(b, cryptocore.FamilyGCM, harness.GCM1, 24)
}
func BenchmarkTable2_GCM_1core_256(b *testing.B) {
	benchThroughput(b, cryptocore.FamilyGCM, harness.GCM1, 32)
}
func BenchmarkTable2_GCM_4x1_128(b *testing.B) {
	benchThroughput(b, cryptocore.FamilyGCM, harness.GCM4x1, 16)
}
func BenchmarkTable2_CCM_1core_128(b *testing.B) {
	benchThroughput(b, cryptocore.FamilyCCM, harness.CCM1, 16)
}
func BenchmarkTable2_CCM_1core_192(b *testing.B) {
	benchThroughput(b, cryptocore.FamilyCCM, harness.CCM1, 24)
}
func BenchmarkTable2_CCM_1core_256(b *testing.B) {
	benchThroughput(b, cryptocore.FamilyCCM, harness.CCM1, 32)
}
func BenchmarkTable2_CCM_2core_128(b *testing.B) {
	benchThroughput(b, cryptocore.FamilyCCM, harness.CCM2, 16)
}
func BenchmarkTable2_CCM_4x1_128(b *testing.B) {
	benchThroughput(b, cryptocore.FamilyCCM, harness.CCM4x1, 16)
}
func BenchmarkTable2_CCM_2x2_128(b *testing.B) {
	benchThroughput(b, cryptocore.FamilyCCM, harness.CCM2x2, 16)
}

// --- E1: loop-time formulas -------------------------------------------------

func benchLoop(b *testing.B, fam cryptocore.Family, split bool, want float64) {
	b.ReportAllocs()
	var rows []harness.LoopTimeRow
	for i := 0; i < b.N; i++ {
		rows = harness.MeasureLoopTimes()
	}
	for _, r := range rows {
		if r.PaperCycles == want {
			b.ReportMetric(r.MeasuredCycles, "cycles_per_block")
			b.ReportMetric(r.PaperCycles, "paper_cycles")
			return
		}
	}
}

func BenchmarkLoopTimes_GCM(b *testing.B)      { benchLoop(b, cryptocore.FamilyGCM, false, 49) }
func BenchmarkLoopTimes_CCM2core(b *testing.B) { benchLoop(b, cryptocore.FamilyCCM, true, 55) }
func BenchmarkLoopTimes_CCM1core(b *testing.B) { benchLoop(b, cryptocore.FamilyCCM, false, 104) }

// --- E3: Table III ----------------------------------------------------------

func BenchmarkTable3_ThisWork(b *testing.B) {
	b.ReportAllocs()
	var rows []harness.TableIIIRow
	for i := 0; i < b.N; i++ {
		rows = harness.OurTableIIIRows(8)
	}
	b.ReportMetric(rows[0].MbpsPerMHz, "GCM_Mbps_per_MHz")
	b.ReportMetric(rows[1].MbpsPerMHz, "CCM_Mbps_per_MHz")
	b.ReportMetric(float64(rows[0].Slices), "slices")
	b.ReportMetric(float64(rows[0].BRAMs), "brams")
}

func BenchmarkTable3_Baselines(b *testing.B) {
	b.ReportAllocs()
	var pipe, aziz, cm float64
	for i := 0; i < b.N; i++ {
		pipe = baseline.LemsitzerGCM.MbpsPerMHz(2048)
		aziz = baseline.AzizCCM.MbpsPerMHz()
		cm = baseline.CryptoManiac.MbpsPerMHz()
	}
	b.ReportMetric(pipe, "pipelined_GCM_Mbps_per_MHz")
	b.ReportMetric(aziz, "iterative_CCM_Mbps_per_MHz")
	b.ReportMetric(cm, "cryptomaniac_Mbps_per_MHz")
}

// --- E4: Table IV -----------------------------------------------------------

func BenchmarkTable4_Reconfiguration(b *testing.B) {
	b.ReportAllocs()
	var rows []reconfig.TableIVRow
	for i := 0; i < b.N; i++ {
		rows = reconfig.TableIV()
	}
	b.ReportMetric(rows[0].FromFlashMillis, "aes_flash_ms")
	b.ReportMetric(rows[0].FromRAMMillis, "aes_ram_ms")
	b.ReportMetric(rows[1].FromFlashMillis, "whirlpool_flash_ms")
	b.ReportMetric(rows[1].FromRAMMillis, "whirlpool_ram_ms")
	b.ReportMetric(rows[0].BitstreamKB, "aes_bitstream_kB")
	b.ReportMetric(rows[1].BitstreamKB, "whirlpool_bitstream_kB")
}

// --- E5: latency vs throughput ----------------------------------------------

func BenchmarkLatency_CCM_4x1_vs_2x2(b *testing.B) {
	b.ReportAllocs()
	var four, two harness.LatencyStats
	for i := 0; i < b.N; i++ {
		four = harness.MeasureLatency(harness.CCM4x1, 8)
		two = harness.MeasureLatency(harness.CCM2x2, 8)
	}
	b.ReportMetric(four.MeanLatencyCyc, "lat4x1_cycles")
	b.ReportMetric(two.MeanLatencyCyc, "lat2x2_cycles")
	b.ReportMetric(four.MeanLatencyCyc/two.MeanLatencyCyc, "latency_ratio")
}

// --- E8: resources ----------------------------------------------------------

func BenchmarkResources(b *testing.B) {
	b.ReportAllocs()
	var d *fpga.Design
	for i := 0; i < b.N; i++ {
		d = fpga.MCCPDesign(4)
	}
	b.ReportMetric(float64(d.Slices()), "slices")
	b.ReportMetric(float64(d.BRAMs()), "brams")
	b.ReportMetric(d.FmaxMHz(), "fmax_MHz")
}

// --- E9: scheduling policies (§VIII extension) ------------------------------

func BenchmarkSchedPolicy(b *testing.B) {
	b.ReportAllocs()
	for _, pol := range []string{"first-idle", "round-robin", "key-affinity"} {
		b.Run(pol, func(b *testing.B) {
			b.ReportAllocs()
			var res trafficgen.RunResult
			for i := 0; i < b.N; i++ {
				res = trafficgen.RunMixed(trafficgen.MixedConfig{
					Policy:     pol,
					Packets:    60,
					Channels:   6,
					Seed:       1,
					QueueDepth: true,
				})
			}
			b.ReportMetric(res.ThroughputMbps, "Mbps")
			b.ReportMetric(res.MeanLatency, "mean_latency_cycles")
			b.ReportMetric(float64(res.KeyExpansions), "key_expansions")
		})
	}
}

// --- E11: sharded cluster scaling -------------------------------------------

// BenchmarkCluster runs the mixed multi-standard workload through the
// sharded service layer at 1/2/4/8 shards — same packets, same mix, same
// seed — and reports the aggregate simulated throughput (total traffic
// over the slowest shard's virtual makespan) plus the host-side
// wall-clock figure. The acceptance bar is >= 3x aggregate Mbps from
// 1 shard to 4.
func BenchmarkCluster(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var res cluster.WorkloadResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = cluster.RunWorkload(cluster.WorkloadConfig{
					Shards:        n,
					Router:        cluster.RouterLeastLoaded,
					QueueRequests: true,
					Packets:       256,
					Sessions:      16,
					Seed:          1,
					BatchWindow:   128,
					// Prefetched generation: identical packet bytes and
					// virtual-time results; generation overlaps shard
					// simulation in wall time.
					PrefetchDepth: 256,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Metrics.AggregateSimMbps, "aggregate_Mbps")
			b.ReportMetric(float64(res.Metrics.ClusterCycles), "cluster_cycles")
			b.ReportMetric(res.Metrics.HostMbps, "host_Mbps")
			b.ReportMetric(float64(res.Metrics.Packets), "packets")
		})
	}
}

// --- E12: QoS priority classes (§VIII extension) ----------------------------

// BenchmarkQoS_Overload runs the 4:1 overload mix (four 2KB background
// streams vs one 256B voice stream) under each dispatch policy and
// reports per-class Mbps, voice latency percentiles and the voice
// throughput retained relative to the uncontended baseline. All figures
// are virtual-time and deterministic per seed; the acceptance bar is
// >= 90% voice retention under qos-priority (first-idle stays far below).
func BenchmarkQoS_Overload(b *testing.B) {
	b.ReportAllocs()
	var res harness.QoSResult
	for i := 0; i < b.N; i++ {
		res = harness.QoSTable(24)
	}
	for _, s := range res.Scenarios {
		b.Run(s.Policy, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = s // measured above; subruns report the cells
			}
			v, bg := s.Cell(qos.Voice), s.Cell(qos.Background)
			// Reported per subrun: a parent with sub-benchmarks never
			// prints its own result line.
			b.ReportMetric(res.VoiceUncontendedMbps, "voice_alone_Mbps")
			b.ReportMetric(v.Mbps, "voice_Mbps")
			b.ReportMetric(bg.Mbps, "background_Mbps")
			b.ReportMetric(float64(v.P50), "voice_p50_cycles")
			b.ReportMetric(float64(v.P99), "voice_p99_cycles")
			b.ReportMetric(float64(v.DeadlineMisses), "voice_deadline_misses")
			b.ReportMetric(res.Retention(s.Policy), "voice_retention")
		})
	}
}

// BenchmarkQoS_Drains contrasts the shaper's strict-priority and
// weighted-fair drain policies under sustained voice load with a
// background burst behind a bounded class queue.
func BenchmarkQoS_Drains(b *testing.B) {
	b.ReportAllocs()
	var rows []harness.QoSDrainRow
	for i := 0; i < b.N; i++ {
		rows = harness.QoSDrainComparison(40)
	}
	for _, r := range rows {
		b.Run(r.Drain, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = r
			}
			b.ReportMetric(float64(r.VoiceP95), "voice_p95_cycles")
			b.ReportMetric(float64(r.BackgroundP95), "background_p95_cycles")
			b.ReportMetric(float64(r.BackgroundCompleted), "background_done")
			b.ReportMetric(float64(r.BackgroundShed), "background_shed")
		})
	}
}

// --- E13: open-loop load curves ---------------------------------------------

// BenchmarkLoadCurve runs the open-loop offered-load sweep at three
// points per policy and reports per-class loss and latency. Every metric
// is virtual-time and deterministic; voice_delivered_frac (the fraction
// of offered voice packets actually delivered) participates in the
// baseline regression gate — it must stay ~1.0 under qos-priority.
func BenchmarkLoadCurve(b *testing.B) {
	b.ReportAllocs()
	var res harness.LoadCurveResult
	for i := 0; i < b.N; i++ {
		res = harness.LoadCurve(harness.LoadCurveConfig{
			Offered:           []float64{0.5, 1.0, 2.0},
			BackgroundPackets: 200,
		})
	}
	for _, p := range res.Points {
		p := p
		b.Run(fmt.Sprintf("%s/offered=%.1f", p.Policy, p.Offered), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = p // measured above; subruns report the cells
			}
			v, bg := p.Classes.Cell(qos.Voice), p.Classes.Cell(qos.Background)
			b.ReportMetric(p.TotalOfferedMbps, "offered_Mbps")
			b.ReportMetric(p.TotalDeliveredMbps, "delivered_Mbps")
			b.ReportMetric(100*v.LossFrac, "voice_loss_pct")
			b.ReportMetric(100*bg.LossFrac, "background_loss_pct")
			b.ReportMetric(1-v.LossFrac, "voice_delivered_frac")
			b.ReportMetric(float64(v.P99), "voice_p99_cycles")
			b.ReportMetric(float64(bg.P99), "background_p99_cycles")
			b.ReportMetric(float64(v.Misses), "voice_deadline_misses")
		})
	}
}

// --- E14: wire-level latency curves -----------------------------------------

// BenchmarkWireLatency runs the loopback mccpserver in front of the
// cluster and replays the open-loop mix through the wire protocol at
// three offered points. wire_Mbps (delivered wire throughput) gates
// higher-is-better; voice_wire_p99_cycles gates lower-is-better — both
// are virtual-time figures, deterministic on the loopback transport with
// a single connection.
func BenchmarkWireLatency(b *testing.B) {
	b.ReportAllocs()
	cfg := harness.WireConfig{
		Sessions: 64,
		Offered:  []float64{0.5, 1.0, 2.0},
		Windows:  24,
	}
	var res harness.WireResult
	for i := 0; i < b.N; i++ {
		res = harness.WireLatency(cfg)
	}
	for _, p := range res.Points {
		p := p
		b.Run(fmt.Sprintf("offered=%.1f", p.Offered), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = p // measured above; subruns report the cells
			}
			v, bg := p.Classes.Cell(qos.Voice), p.Classes.Cell(qos.Background)
			b.ReportMetric(p.TotalOfferedMbps, "offered_Mbps")
			b.ReportMetric(p.WireMbps, "wire_Mbps")
			b.ReportMetric(float64(v.P99), "voice_wire_p99_cycles")
			b.ReportMetric(float64(bg.P99), "background_wire_p99_cycles")
			b.ReportMetric(100*v.LossFrac, "voice_loss_pct")
			b.ReportMetric(100*bg.LossFrac, "background_loss_pct")
			b.ReportMetric(float64(v.Shed), "voice_shed")
		})
	}
}

// --- E15: rolling reconfiguration under load --------------------------------

// BenchmarkReconfigUnderLoad runs the E15 fleet-agility measurement — a
// rolling Whirlpool swap across a two-shard cluster under a sustained
// open-loop stream — and reports what the serving shards delivered
// during the bitstream windows at each source speed and policy.
// voice_delivered_frac participates in the tight baseline gate (voice
// must ride out every swap); during_delivered_Mbps gates as throughput;
// voice_swap_p99_cycles is informational (not a wire metric).
func BenchmarkReconfigUnderLoad(b *testing.B) {
	b.ReportAllocs()
	var res harness.ReconfigLoadResult
	for i := 0; i < b.N; i++ {
		res = harness.ReconfigUnderLoad(harness.ReconfigLoadConfig{
			Shards:    2,
			TimeScale: 256,
		})
	}
	for _, run := range res.Runs {
		run := run
		b.Run(fmt.Sprintf("%s/src=%s", run.Policy, run.Source), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = run // measured above; subruns report the cells
			}
			v, bg := run.Classes.Cell(qos.Voice), run.Classes.Cell(qos.Background)
			b.ReportMetric(run.TrueWindowMillis, "window_ms")
			b.ReportMetric(run.BaselineDelivered, "baseline_delivered_Mbps")
			b.ReportMetric(run.DuringDelivered, "during_delivered_Mbps")
			b.ReportMetric(1-v.LossFrac, "voice_delivered_frac")
			b.ReportMetric(float64(v.P99), "voice_swap_p99_cycles")
			b.ReportMetric(100*bg.LossFrac, "background_loss_pct")
			b.ReportMetric(float64(run.Drained), "sessions_drained")
		})
	}
}

// --- E16: fault curves ------------------------------------------------------

// BenchmarkFaultCurves runs the E16 fault drill — crash count x churn
// rate at 0.9x saturation through the loopback server — and reports what
// each policy kept alive. voice_delivered_frac participates in the tight
// baseline gate (voice must ride out a single-shard crash under
// qos-priority); wire_Mbps gates as throughput and voice_wire_p99_cycles
// lower-is-better; the re-home/recovery figures are informational
// virtual-time cycle counts. The zero-fault row runs the same code path
// as E14, so its cells double as a wiring check against that baseline.
func BenchmarkFaultCurves(b *testing.B) {
	b.ReportAllocs()
	cfg := harness.FaultConfig{
		Wire: harness.WireConfig{
			Shards:       4,
			Sessions:     96,
			WindowCycles: 4096,
			Windows:      24,
		},
		FaultWindow: 8,
	}
	var res harness.FaultResult
	for i := 0; i < b.N; i++ {
		res = harness.FaultCurves(cfg)
	}
	for _, p := range res.Points {
		p := p
		b.Run(fmt.Sprintf("%s/crashes=%d_churn=%d", p.Policy, p.Row.Crashes, p.Row.Churn), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = p // measured above; subruns report the cells
			}
			v, bg := p.Classes.Cell(qos.Voice), p.Classes.Cell(qos.Background)
			recovered := 0.0
			if p.Recovered {
				recovered = 1
			}
			b.ReportMetric(p.TotalOfferedMbps, "offered_Mbps")
			b.ReportMetric(p.WireMbps, "wire_Mbps")
			b.ReportMetric(1-v.LossFrac, "voice_delivered_frac")
			b.ReportMetric(float64(v.P99), "voice_wire_p99_cycles")
			b.ReportMetric(100*bg.LossFrac, "background_loss_pct")
			b.ReportMetric(float64(p.Moved), "sessions_moved")
			b.ReportMetric(float64(p.Lost), "sessions_lost")
			b.ReportMetric(float64(p.RehomeTook), "rehome_cycles")
			b.ReportMetric(float64(p.RecoveryCycles), "recovery_cycles")
			b.ReportMetric(recovered, "recovered")
			b.ReportMetric(float64(p.Churned), "sessions_churned")
		})
	}
}

// --- E17: recovery curves ---------------------------------------------------

// BenchmarkRecoveryCurves runs the E17 recovery drill — one shard
// crashed at 0.9x saturation with the restart loop armed, swept over the
// paper's bitstream sources — and reports the climb back per source.
// voice_delivered_frac and brownout_lifted participate in the tight
// baseline gate (voice must ride through crash AND recovery, and the
// shed classes must all be re-admitted); restart/rejoin/capacity figures
// are informational virtual-time counts whose ordering mirrors Table IV:
// icap rejoins before ram before compact-flash.
func BenchmarkRecoveryCurves(b *testing.B) {
	b.ReportAllocs()
	cfg := harness.RecoveryConfig{
		Wire: harness.WireConfig{
			Shards:       4,
			Sessions:     96,
			WindowCycles: 4096,
			Windows:      24,
		},
		FaultWindow: 8,
		// Squeeze even the compact-flash reload into the short bench
		// horizon; source ordering is scale-invariant.
		TimeScale: 16384,
	}
	var res harness.RecoveryResult
	for i := 0; i < b.N; i++ {
		res = harness.RecoveryCurves(cfg)
	}
	for _, p := range res.Points {
		p := p
		b.Run(fmt.Sprintf("%s/source=%s", p.Policy, p.Source), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = p // measured above; subruns report the cells
			}
			v, bg := p.Classes.Cell(qos.Voice), p.Classes.Cell(qos.Background)
			lifted := 0.0
			if p.BrownoutLifted {
				lifted = 1
			}
			restored := 0.0
			if p.CapacityRestored {
				restored = 1
			}
			b.ReportMetric(p.TotalOfferedMbps, "offered_Mbps")
			b.ReportMetric(p.WireMbps, "wire_Mbps")
			b.ReportMetric(1-v.LossFrac, "voice_delivered_frac")
			b.ReportMetric(100*bg.LossFrac, "background_loss_pct")
			b.ReportMetric(float64(p.Moved), "sessions_moved")
			b.ReportMetric(float64(p.Lost), "sessions_lost")
			b.ReportMetric(float64(p.RestartCycles), "restart_cycles")
			b.ReportMetric(p.TrueRestartMillis, "restart_true_ms")
			b.ReportMetric(float64(p.RejoinWindow), "rejoin_window")
			b.ReportMetric(lifted, "brownout_lifted")
			b.ReportMetric(float64(p.CapacityCycles), "capacity_cycles")
			b.ReportMetric(restored, "capacity_restored")
		})
	}
}

// --- E18: stage attribution --------------------------------------------------

// BenchmarkStageAttribution runs the E18 traced decomposition at three
// offered points and reports where each class's p99 latency is spent.
// The tracer runs at sample rate 1, so the stage cycles are exact
// virtual-time figures and deterministic; delivered_Mbps gates as
// throughput and voice_p99_cycles as latency, same cells as E13 (the
// traced run reconciles bit-for-bit with the untraced one).
func BenchmarkStageAttribution(b *testing.B) {
	b.ReportAllocs()
	var res harness.StageCurveResult
	for i := 0; i < b.N; i++ {
		res = harness.StageAttribution(harness.StageCurveConfig{
			Offered: []float64{0.5, 1.0, 1.5},
			Load:    harness.LoadCurveConfig{BackgroundPackets: 200},
		})
	}
	for _, p := range res.Points {
		p := p
		b.Run(fmt.Sprintf("%s/offered=%.1f", p.Policy, p.Offered), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = p // measured above; subruns report the cells
			}
			v, bg := p.StageCell(qos.Voice), p.StageCell(qos.Background)
			b.ReportMetric(p.TotalDeliveredMbps, "delivered_Mbps")
			b.ReportMetric(float64(p.Spans), "spans_traced")
			b.ReportMetric(float64(v.TotalP99), "voice_p99_cycles")
			b.ReportMetric(float64(v.P99[obs.StageQueue]), "voice_queue_p99_cycles")
			b.ReportMetric(float64(v.P99[obs.StageCore]), "voice_core_p99_cycles")
			b.ReportMetric(float64(bg.TotalP99), "background_p99_cycles")
			b.ReportMetric(float64(bg.P99[obs.StageQueue]), "background_queue_p99_cycles")
		})
	}
}

// --- E10: ablations ---------------------------------------------------------

// BenchmarkAblation_GHashDigits sweeps the GHASH multiplier digit width:
// the paper picked 3 bits (43 cycles); the sweep shows where GHASH would
// start limiting the 49-cycle GCM loop.
func BenchmarkAblation_GHashDigits(b *testing.B) {
	b.ReportAllocs()
	for _, d := range []int{1, 2, 3, 4, 8} {
		b.Run(fmt.Sprintf("digits=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			cyc := ghash.DigitSerialCycles(d)
			limit := float64(cyc)
			loop := 49.0
			if limit > loop {
				loop = limit // GHASH becomes the loop bound
			}
			var x bits.Block
			h := bits.BlockFromHex("66e94bd4ef8a2c3b884cfa59ca342b2e")
			for i := 0; i < b.N; i++ {
				x = ghash.MulDigitSerial(x, h, d)
			}
			_ = x
			b.ReportMetric(float64(cyc), "mul_cycles")
			b.ReportMetric(128/loop*190, "gcm_Mbps_bound")
		})
	}
}

// BenchmarkAblation_KeySizes reproduces the key-size column structure of
// Table II from the AES core latency alone.
func BenchmarkAblation_KeySizes(b *testing.B) {
	b.ReportAllocs()
	for _, ks := range []aes.KeySize{aes.Key128, aes.Key192, aes.Key256} {
		b.Run(ks.String(), func(b *testing.B) {
			b.ReportAllocs()
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = harness.TheoreticalMbps(cryptocore.FamilyGCM, harness.GCM1, ks)
			}
			b.ReportMetric(mbps, "theoretical_Mbps")
			b.ReportMetric(float64(ks.CoreCycles()), "aes_cycles")
		})
	}
}

// --- Simulator self-benchmarks ----------------------------------------------

// BenchmarkSimulatorRate reports how fast the cycle simulation itself runs
// (simulated cycles per wall second), to size longer experiments.
func BenchmarkSimulatorRate(b *testing.B) {
	b.ReportAllocs()
	var cycles float64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		// Two 2KB GCM packets end-to-end; recover the measured virtual
		// duration from the returned throughput figure.
		mbps := harness.MeasureThroughput(cryptocore.FamilyGCM, harness.GCM1, 16, 2048, 2)
		cycles += float64(2*2048*8) / (mbps * 1e6) * sim.DefaultFreqHz
	}
	wall := time.Since(start).Seconds()
	b.ReportMetric(cycles/float64(b.N), "cycles_per_iter")
	if wall > 0 {
		b.ReportMetric(cycles/wall/1e6, "sim_Mcycles_per_s")
	}
}
