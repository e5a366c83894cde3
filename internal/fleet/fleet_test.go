package fleet

import (
	"testing"

	"mccp/internal/arrivals"
	"mccp/internal/cluster"
	"mccp/internal/core"
	"mccp/internal/cryptocore"
	"mccp/internal/reconfig"
	"mccp/internal/sim"
)

func testCluster(t *testing.T, shards int) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Shards:        shards,
		Router:        cluster.RouterLeastLoaded,
		QueueRequests: true,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func openSessions(t *testing.T, cl *cluster.Cluster, n int) []*cluster.Session {
	t.Helper()
	var out []*cluster.Session
	for i := 0; i < n; i++ {
		ses, err := cl.Open(cluster.OpenSpec{
			Suite:  core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16},
			KeyLen: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ses)
	}
	return out
}

func TestScaleDrainsAndReadmits(t *testing.T) {
	cl := testCluster(t, 4)
	f := New(cl)
	sessions := openSessions(t, cl, 8)
	if got := f.Active(); got != 4 {
		t.Fatalf("active = %d, want 4", got)
	}

	rep, err := f.Scale(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Active != 1 || f.Active() != 1 {
		t.Fatalf("scale-in report %+v, active %d", rep, f.Active())
	}
	for _, ses := range sessions {
		if ses.Shard() != 0 {
			t.Fatalf("session %d still on shard %d after scale-in", ses.ID(), ses.Shard())
		}
	}

	rep, err = f.Scale(4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Active != 4 || rep.Moved == 0 {
		t.Fatalf("scale-out report %+v", rep)
	}
	perShard := map[int]int{}
	for _, ses := range sessions {
		perShard[ses.Shard()]++
	}
	if len(perShard) != 4 {
		t.Fatalf("sessions on %d shards after scale-out, want 4 (%v)", len(perShard), perShard)
	}

	if _, err := f.Scale(0); err == nil {
		t.Fatal("Scale(0) accepted")
	}
	if _, err := f.Scale(5); err == nil {
		t.Fatal("Scale(5) accepted on a 4-shard pool")
	}
}

func TestRollingSwapVisitsEveryShard(t *testing.T) {
	cl := testCluster(t, 3)
	f := New(cl)
	sessions := openSessions(t, cl, 6)

	want := SwapWindow(reconfig.EngineWhirlpool, reconfig.StagingRAM)
	var visited []int
	reports, err := f.RollingSwap(0, reconfig.EngineWhirlpool, reconfig.StagingRAM,
		func(shard int, window sim.Time) error {
			if window != want {
				t.Fatalf("window %d, want %d", window, want)
			}
			if cl.ShardActive(shard) {
				t.Fatalf("shard %d still active during its own swap", shard)
			}
			visited = append(visited, shard)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 || len(visited) != 3 {
		t.Fatalf("reports %v, visited %v", reports, visited)
	}
	for i, rep := range reports {
		if rep.Shard != i {
			t.Fatalf("report %d for shard %d, want rolling order", i, rep.Shard)
		}
		if rep.Took != want {
			t.Fatalf("shard %d swap took %d, want %d", rep.Shard, rep.Took, want)
		}
	}
	if got := f.Active(); got != 3 {
		t.Fatalf("active = %d after rolling swap, want 3", got)
	}
	// Every shard now exposes a Whirlpool core; traffic still flows.
	nonce := make([]byte, 12)
	if _, err := sessions[0].Do(cluster.Op{Nonce: nonce, Data: []byte("post-swap traffic")}); err != nil {
		t.Fatal(err)
	}
}

// offeredSeries bins the superposition of several independent on-off
// MMPP arrival streams (the E13 burst profile: a cluster serves many
// bursty sources, not one) into control intervals and converts each bin
// to offered Mbps — the signal the autoscaler consumes.
func offeredSeries(bins, sources int, binCycles sim.Time, meanGap float64, bytesPer int, seed uint64) []float64 {
	root := arrivals.NewRand(seed)
	out := make([]float64, bins)
	horizon := binCycles * sim.Time(bins)
	for s := 0; s < sources; s++ {
		rng := root.Split()
		proc := arrivals.NewOnOff(meanGap*float64(sources), arrivals.DefaultDuty, arrivals.DefaultBurstLen)
		var at sim.Time
		for {
			at += proc.Gap(rng)
			if at >= horizon {
				break
			}
			out[at/binCycles] += float64(bytesPer * 8)
		}
	}
	for i := range out {
		out[i] = out[i] / float64(binCycles) * sim.DefaultFreqHz / 1e6
	}
	return out
}

func TestAutoscalerHysteresisNoThrash(t *testing.T) {
	const knee = 1000.0 // Mbps per shard
	cfg := AutoscalerConfig{Min: 1, Max: 4, KneeMbpsPerShard: knee}
	a, err := NewAutoscaler(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Sixteen superposed bursty streams whose long-run average (~1300
	// Mbps, util 0.65 on two shards) sits inside the hysteresis band but
	// whose on-off bursts (4x the mean while on, silence while off)
	// cross both watermarks constantly bin-by-bin.
	series := offeredSeries(240, 16, 19200, 600, 512, 0xE13B)
	naive, naiveSteps := 2, 0
	for _, offered := range series {
		a.Observe(offered)
		// The controller the hysteresis exists to beat: step on every
		// single-observation threshold crossing.
		util := offered / (float64(naive) * knee)
		if util >= 0.85 && naive < cfg.Max {
			naive++
			naiveSteps++
		} else if util <= 0.50 && naive > cfg.Min {
			naive--
			naiveSteps++
		}
	}
	if naiveSteps < 10 {
		t.Fatalf("burst profile too tame: naive controller only took %d steps", naiveSteps)
	}
	if a.Steps() > naiveSteps/10 {
		t.Fatalf("autoscaler thrashed: %d steps under the MMPP burst (naive: %d)", a.Steps(), naiveSteps)
	}
}

func TestAutoscalerStepsUnderSustainedLoad(t *testing.T) {
	a, err := NewAutoscaler(AutoscalerConfig{Min: 1, Max: 4, KneeMbpsPerShard: 1000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Sustained overload grows the fleet one debounced step at a time.
	for i := 0; i < 20; i++ {
		a.Observe(3000)
	}
	if a.Active() != 4 {
		t.Fatalf("active = %d after sustained overload, want 4", a.Active())
	}
	// Sustained idle shrinks it back, but never below Min.
	for i := 0; i < 60; i++ {
		a.Observe(100)
	}
	if a.Active() != 1 {
		t.Fatalf("active = %d after sustained idle, want 1", a.Active())
	}
	// A retire that would immediately re-trip the high watermark is
	// refused: 2 shards at util 0.5 (exactly the low watermark) would
	// become util 1.0 on one shard.
	b, err := NewAutoscaler(AutoscalerConfig{Min: 1, Max: 4, KneeMbpsPerShard: 1000}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		b.Observe(1000)
	}
	if b.Active() != 2 {
		t.Fatalf("active = %d, want 2 (flap-guard should refuse the retire)", b.Active())
	}
}
