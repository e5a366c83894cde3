package fleet

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"mccp/internal/cluster"
	"mccp/internal/reconfig"
)

// TestAutoscalerStepUpRefusedAtPool: with the fleet already at the full
// pool, sustained overload is an observation, not a step — the
// controller must not count phantom capacity.
func TestAutoscalerStepUpRefusedAtPool(t *testing.T) {
	a, err := NewAutoscaler(AutoscalerConfig{Min: 1, Max: 2, KneeMbpsPerShard: 1000}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if got := a.Observe(5000); got != 2 {
			t.Fatalf("observation %d: target %d, want 2 (pool exhausted)", i, got)
		}
	}
	if a.Steps() != 0 {
		t.Fatalf("controller stepped %d times with nowhere to grow", a.Steps())
	}
}

// TestAutoscalerFlapGuardFirstPostCooldown: the very first observation
// after a cooldown expires satisfies the (single-observation) retire
// debounce, but the flap guard still refuses it when the smaller fleet
// would immediately re-breach the high watermark.
func TestAutoscalerFlapGuardFirstPostCooldown(t *testing.T) {
	cfg := AutoscalerConfig{
		Min: 1, Max: 4, KneeMbpsPerShard: 1000,
		ScaleDownAfter: 1, Smoothing: 1, // no EWMA lag, instant retire evidence
	}
	a, err := NewAutoscaler(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	// util 0.50 on 3 shards -> retire to 2 is safe (util 0.75) and taken.
	if got := a.Observe(1500); got != 2 {
		t.Fatalf("first retire refused: target %d, want 2", got)
	}
	// Cooldown (default 3) swallows the next observations.
	for i := 0; i < 3; i++ {
		if got := a.Observe(1000); got != 2 {
			t.Fatalf("cooldown observation %d stepped to %d", i, got)
		}
	}
	// First post-cooldown observation: util 0.50 on 2 shards trips the
	// low watermark instantly (ScaleDownAfter 1), but one shard would run
	// at util 1.00 >= high water — a guaranteed flap. Refused, forever.
	for i := 0; i < 10; i++ {
		if got := a.Observe(1000); got != 2 {
			t.Fatalf("flap guard failed on post-cooldown observation %d: target %d", i, got)
		}
	}
	if a.Steps() != 1 {
		t.Fatalf("steps = %d, want exactly the one safe retire", a.Steps())
	}
}

// TestAutoscalerIgnoresNonFinite: NaN/Inf/negative offered rates (a
// zero-length measurement interval upstream) are dropped whole — they
// must neither step the fleet nor poison the EWMA for later samples.
func TestAutoscalerIgnoresNonFinite(t *testing.T) {
	a, err := NewAutoscaler(AutoscalerConfig{Min: 1, Max: 4, KneeMbpsPerShard: 1000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Poison attempts before priming and after.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -42} {
		if got := a.Observe(bad); got != 1 {
			t.Fatalf("Observe(%v) stepped to %d", bad, got)
		}
	}
	a.Observe(500)
	if s := a.Smoothed(); s != 500 {
		t.Fatalf("smoothed = %v after first finite sample, want 500 (EWMA poisoned?)", s)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		a.Observe(bad)
		if s := a.Smoothed(); math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("Observe(%v) poisoned the EWMA: %v", bad, s)
		}
	}
	// The controller still works after the garbage.
	for i := 0; i < 80; i++ {
		a.Observe(5000)
	}
	if a.Active() != 4 {
		t.Fatalf("active = %d after sustained overload, want 4", a.Active())
	}
}

// TestScaleSkipsQuarantinedShards: after a fail-over the corpse is not
// capacity — Scale assigns the serving set from the healthy pool only,
// and nothing can re-admit the quarantined shard.
func TestScaleSkipsQuarantinedShards(t *testing.T) {
	cl, err := cluster.New(cluster.Config{
		Shards: 3, Router: cluster.RouterLeastLoaded,
		QueueRequests: true, Seed: 23, Shape: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	f := New(cl)
	sessions := openSessions(t, cl, 6)

	rep, err := cl.FailOver(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Moved+rep.Lost == 0 && sessionsOn(sessions, 1) > 0 {
		t.Fatalf("fail-over left sessions on the corpse: %+v", rep)
	}
	for _, ses := range sessions {
		if !ses.Closed() && ses.Shard() == 1 {
			t.Fatalf("session %d still homed on quarantined shard", ses.ID())
		}
	}
	if err := cl.SetShardActive(1, true); err == nil {
		t.Fatal("quarantined shard re-admitted by SetShardActive")
	}
	if _, err := f.Scale(3); err == nil {
		t.Fatal("Scale(3) accepted with only 2 healthy shards")
	}
	if _, err := f.Scale(2); err != nil {
		t.Fatal(err)
	}
	if !cl.ShardActive(0) || cl.ShardActive(1) || !cl.ShardActive(2) {
		t.Fatalf("Scale(2) serving set: %v %v %v, want shards 0 and 2",
			cl.ShardActive(0), cl.ShardActive(1), cl.ShardActive(2))
	}
	if _, err := f.Scale(1); err != nil {
		t.Fatal(err)
	}
	if f.Active() != 1 || cl.ShardActive(1) {
		t.Fatalf("Scale(1) active=%d, corpse active=%v", f.Active(), cl.ShardActive(1))
	}
}

func sessionsOn(sessions []*cluster.Session, shard int) int {
	n := 0
	for _, ses := range sessions {
		if !ses.Closed() && ses.Shard() == shard {
			n++
		}
	}
	return n
}

// TestSnapshotDuringScaleStress hammers Snapshot (and the other
// any-goroutine metrics surfaces) from readers while the front end
// scales in and out and rolling-swaps — the torn-read hunt this test
// exists for runs under -race in CI.
func TestSnapshotDuringScaleStress(t *testing.T) {
	cl, err := cluster.New(cluster.Config{
		Shards: 4, Router: cluster.RouterLeastLoaded,
		QueueRequests: true, Seed: 29, Shape: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	f := New(cl)
	openSessions(t, cl, 16)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				m := cl.Snapshot()
				if len(m.Shards) != 4 {
					t.Errorf("snapshot saw %d shards", len(m.Shards))
					return
				}
				active := 0
				for i, sh := range m.Shards {
					if sh.Active {
						active++
					}
					_ = cl.NextHeartbeat(i)
					_ = cl.QuarantinedShard(i)
				}
				if active < 1 || active > 4 {
					t.Errorf("snapshot saw %d active shards", active)
					return
				}
			}
		}()
	}
	iters := 40
	if testing.Short() {
		iters = 8
	}
	for i := 0; i < iters && !t.Failed(); i++ {
		if _, err := f.Scale(1 + i%4); err != nil {
			t.Errorf("scale: %v", err)
			break
		}
		if i%8 == 3 {
			if _, err := f.RollingSwap(0, reconfig.EngineWhirlpool, reconfig.StagingRAM, nil); err != nil {
				t.Errorf("rolling swap: %v", err)
				break
			}
		}
	}
	stop.Store(true)
	wg.Wait()
}
