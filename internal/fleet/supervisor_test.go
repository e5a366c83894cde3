package fleet

import (
	"testing"

	"mccp/internal/arrivals"
	"mccp/internal/cluster"
	"mccp/internal/cryptocore"
	"mccp/internal/faults"
	"mccp/internal/qos"
	"mccp/internal/reconfig"
	"mccp/internal/sim"
)

// supervisorMix is voice- and video-heavy, so that losing one of four
// shards browns out two classes (background, then data) and the lift has
// more than one step to take.
var supervisorMix = []arrivals.ClassProfile{
	{Class: qos.Voice, Share: 0.50, Bytes: 256, Family: cryptocore.FamilyCCM, KeyLen: 16, TagLen: 8, Deadline: 16000},
	{Class: qos.Video, Share: 0.40, Bytes: 1024, Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16},
	{Class: qos.Data, Share: 0.05, Bytes: 512, Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16},
	{Class: qos.Background, Share: 0.05, Bytes: 2048, Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16},
}

const (
	supervisorOffered = 2000.0 // cluster-total Mbps
	supervisorWindow  = sim.Time(400000)
)

// supervisorDrill runs the mccpcluster drill's composition — a shaped
// 4x4 cluster, an OpenLoopRunner window, then a Supervisor boundary —
// for the given number of windows, and returns every event logged.
// The policy plans for 3.2x the per-shard capacity, so three healthy
// shards cannot carry the offered load and four can.
func supervisorDrill(t *testing.T, sched faults.Schedule, src reconfig.Source, windows int) (*cluster.Cluster, []RehomeEvent, []HealEvent) {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Shards:        4,
		CoresPerShard: 4,
		Router:        cluster.RouterQoSAware,
		Policy:        "qos-priority",
		QueueRequests: true,
		Seed:          sched.Seed,
		Shape:         true,
		Shaper:        qos.Config{Capacity: 8, QueueDepth: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	runner, err := cluster.NewOpenLoopRunner(cl, cluster.OpenLoopRunnerConfig{
		Profiles:    supervisorMix,
		OfferedMbps: supervisorOffered,
		Seed:        sched.Seed,
	})
	if err != nil {
		cl.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { runner.Close(); cl.Close() })
	var shares [qos.NumClasses]float64
	for _, p := range supervisorMix {
		shares[p.Class] = p.Share
	}
	sup := NewSupervisor(cl, Policy{
		Schedule:        sched,
		OfferedMbps:     supervisorOffered,
		SatMbpsPerShard: supervisorOffered / 3.2,
		Shares:          shares,
		RestartSource:   src,
		WindowCycles:    supervisorWindow,
	})
	var rehomes []RehomeEvent
	var heals []HealEvent
	for w := 0; w < windows; w++ {
		if _, err := runner.RunWindow(supervisorWindow); err != nil {
			t.Fatal(err)
		}
		r, h := sup.Boundary()
		for _, ev := range h {
			if ev.Restarted {
				runner.Resnapshot()
			}
		}
		rehomes, heals = append(rehomes, r...), append(heals, h...)
	}
	return cl, rehomes, heals
}

// TestSupervisorCrashRestartLift pins the control loop's arc: one crash
// is failed over at the boundary closing its window with background and
// data browned out, the restart lands ceil(RestartCycles/WindowCycles)
// windows later, and the mask then lifts one class per boundary, highest
// priority first.
func TestSupervisorCrashRestartLift(t *testing.T) {
	sched, err := faults.Plan(faults.PlanConfig{
		Seed: 3, Shards: 4, Windows: 10, Crashes: 1, FaultWindow: 2,
		WindowCycles: supervisorWindow,
	})
	if err != nil {
		t.Fatal(err)
	}
	crash := sched.Events[0]
	cl, rehomes, heals := supervisorDrill(t, sched, reconfig.FastICAP, 10)

	if len(rehomes) != 1 {
		t.Fatalf("fail-overs %+v, want exactly one", rehomes)
	}
	rh := rehomes[0]
	if rh.Window != crash.Window+1 || rh.Shard != crash.Shard || rh.Lost != 0 {
		t.Fatalf("fail-over %+v; want shard %d at the boundary closing window %d, nothing lost",
			rh, crash.Shard, crash.Window)
	}
	want := [qos.NumClasses]bool{qos.Background: true, qos.Data: true}
	if rh.Deny != want {
		t.Fatalf("brownout after fail-over %v, want %v", rh.Deny, want)
	}

	wait := int((cluster.RestartCycles(4, reconfig.FastICAP) + supervisorWindow - 1) / supervisorWindow)
	if len(heals) != 3 {
		t.Fatalf("heal log %+v, want a restart and two lifts", heals)
	}
	rs := heals[0]
	if !rs.Restarted || rs.Shard != crash.Shard || rs.Window != rh.Window+wait || rs.RestartCycles == 0 {
		t.Fatalf("restart %+v; want shard %d rebuilt at window %d (%d windows after the fail-over)",
			rs, crash.Shard, rh.Window+wait, wait)
	}
	// Data (the higher of the two denied classes) lifts first, at the
	// restart's own boundary; background one boundary later.
	for i, lifted := range []qos.Class{qos.Data, qos.Background} {
		ev := heals[1+i]
		want[lifted] = false
		if ev.Restarted || ev.Shard != -1 || ev.Window != rs.Window+i || ev.Deny != want {
			t.Fatalf("lift %d: %+v; want mask %v at window %d", i, ev, want, rs.Window+i)
		}
	}
	for id := 0; id < cl.Shards(); id++ {
		if cl.QuarantinedShard(id) || !cl.ShardActive(id) {
			t.Fatalf("shard %d not serving after the heal", id)
		}
	}
}

// TestSupervisorStallNeverFailsOver pins the invariant that makes a
// quarantine permanent until Restart: a stalled shard's heartbeat keeps
// advancing, so the detector never mistakes a stall for a crash.
func TestSupervisorStallNeverFailsOver(t *testing.T) {
	sched, err := faults.Plan(faults.PlanConfig{
		Seed: 3, Shards: 4, Windows: 5, Stalls: 1, FaultWindow: 1,
		StallCycles: supervisorWindow / 2, WindowCycles: supervisorWindow,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Events) != 1 || sched.Events[0].Kind != faults.ShardStall {
		t.Fatalf("schedule %s, want one stall", sched)
	}
	cl, rehomes, heals := supervisorDrill(t, sched, reconfig.FastICAP, 5)
	if len(rehomes) != 0 || len(heals) != 0 {
		t.Fatalf("stall drew supervisor actions: fail-overs %+v, heals %+v", rehomes, heals)
	}
	for id := 0; id < cl.Shards(); id++ {
		if cl.QuarantinedShard(id) {
			t.Fatalf("stalled shard %d quarantined", id)
		}
	}
}
