package fleet

import (
	"mccp/internal/cluster"
	"mccp/internal/faults"
	"mccp/internal/qos"
	"mccp/internal/reconfig"
	"mccp/internal/sim"
)

// Policy configures a Supervisor: the fault schedule it arms, the
// brownout planner's inputs and the restart loop.
type Policy struct {
	// Schedule's shard events arm at window boundaries: events for
	// window k arm at the boundary that starts it and fire mid-window on
	// the victim shard's own virtual timeline. SessionChurn events are
	// the load generator's side and are ignored here.
	Schedule faults.Schedule
	// Brownout inputs: the offered load, the per-healthy-shard serving
	// capacity (same unit) and each class's share of the offered bits.
	// After a fail-over the supervisor sheds whole classes (background
	// first, never voice) until the remaining capacity covers the
	// admitted load. SatMbpsPerShard 0 disables brownout.
	OfferedMbps     float64
	SatMbpsPerShard float64
	Shares          [qos.NumClasses]float64
	// RestartSource closes the loop: a quarantined shard is rebuilt by
	// streaming the base bitstream back in from this source, and rejoins
	// once enough windows have passed to cover cluster.RestartCycles at
	// its speed. The zero Source schedules no restarts.
	RestartSource reconfig.Source
	// WindowCycles is one window's virtual length: it converts the
	// restart duration into a rejoin window and the per-window
	// offered-byte deltas into the measured Mbps that gates the brownout
	// lift. 0 schedules restarts one window out and leaves the lift
	// ungated.
	WindowCycles sim.Time
}

// RehomeEvent records one detector-driven fail-over.
type RehomeEvent struct {
	// Window is the window at whose starting boundary the detector
	// fired; Shard the quarantined victim.
	Window int
	Shard  int
	// Moved/Lost split the victim's sessions; Took is the re-home's
	// virtual-time cost on the survivors (max over shards).
	Moved int
	Lost  int
	Took  sim.Time
	// Deny is the brownout mask applied after this fail-over (all-false
	// when capacity still covers the offered load).
	Deny [qos.NumClasses]bool
}

// HealEvent records one recovery action taken at a window boundary — the
// other half of the fault log RehomeEvent starts: a restart (Shard >= 0)
// or a one-class brownout lift (Shard -1).
type HealEvent struct {
	Window int
	Shard  int
	// Restarted marks a bitstream-reload rebuild; RestartCycles is the
	// rebuilt shard's reload duration on its fresh virtual timeline.
	Restarted     bool
	RestartCycles sim.Time
	// Rebalanced counts sessions shifted onto the rejoined shard.
	Rebalanced int
	// Deny is the brownout mask in force after this event.
	Deny [qos.NumClasses]bool
}

// restartJob is one scheduled shard rebuild: the restart runs at the
// first window boundary >= ready, modeling the bitstream reload occupying
// the windows in between at the configured source speed.
type restartJob struct {
	shard int
	ready int
}

// Supervisor is the fleet's self-healing control loop, run once per
// window boundary by whoever owns the cluster front end: detect a
// crashed shard by its frozen heartbeat, fail it over voice-first, brown
// out to the surviving capacity, rebuild it after the reload time has
// passed, rebalance load back onto it and lift the brownout class by
// class. It is the paper's Main Controller decision loop (§III, §VII.B)
// at fleet scope, and has the cluster's single-caller discipline.
type Supervisor struct {
	cl          *cluster.Cluster
	p           Policy
	window      int
	lastHB      []uint64
	lastOffered []uint64
	restarts    []restartJob
	deny        [qos.NumClasses]bool
}

// NewSupervisor binds a supervisor to a shaped cluster. The first
// Boundary call ends window 0.
func NewSupervisor(cl *cluster.Cluster, p Policy) *Supervisor {
	return &Supervisor{
		cl:          cl,
		p:           p,
		lastHB:      make([]uint64, cl.Shards()),
		lastOffered: make([]uint64, cl.Shards()),
	}
}

// Boundary ends the current window and starts the next: it measures the
// window's offered load, fails over every shard whose heartbeat froze
// while it was offered traffic, runs due restarts and the brownout lift,
// then arms the schedule's faults for the window now starting. It
// returns the actions taken. With no fault fired and nothing pending it
// leaves the cluster untouched, so fault-free runs keep their virtual
// timelines.
func (s *Supervisor) Boundary() ([]RehomeEvent, []HealEvent) {
	s.window++
	snap := s.cl.Snapshot()
	var delta uint64
	for i := range snap.Shards {
		if ob := snap.Shards[i].OfferedBytes; ob >= s.lastOffered[i] {
			delta += ob - s.lastOffered[i]
		}
	}
	measured := 0.0
	if s.p.WindowCycles > 0 {
		measured = float64(delta*8) / float64(s.p.WindowCycles) * sim.DefaultFreqHz / 1e6
	}
	rehomes := s.detect(&snap)
	heals := s.heal(measured)
	for _, e := range s.p.Schedule.ForWindow(s.window) {
		// Arming only fails on a shard index the planner validated or on
		// an unshaped cluster, which has no fault plane to arm.
		switch e.Kind {
		case faults.ShardCrash:
			_ = s.cl.ArmShardCrash(e.Shard, s.cl.NextHeartbeat(e.Shard), e.Offset)
		case faults.ShardStall:
			_ = s.cl.ArmShardStall(e.Shard, s.cl.NextHeartbeat(e.Shard), e.Offset, e.Dur)
		}
	}
	return rehomes, heals
}

// detect is the failure detector: a shard whose heartbeat did not
// advance across the window while its offered bytes kept growing is dead
// (an idle shard's offered bytes are flat; a stalled shard's heartbeat
// still advances, so a stall is never quarantined). Each detection
// quarantines the corpse, re-homes its sessions voice-first, re-plans
// the brownout for the capacity that remains and schedules the rebuild.
func (s *Supervisor) detect(snap *cluster.Metrics) []RehomeEvent {
	var out []RehomeEvent
	for i := range snap.Shards {
		sm := &snap.Shards[i]
		frozen := sm.Heartbeat == s.lastHB[i] && sm.OfferedBytes > s.lastOffered[i]
		s.lastHB[i], s.lastOffered[i] = sm.Heartbeat, sm.OfferedBytes
		if !frozen || sm.Quarantined {
			continue
		}
		rep, err := s.cl.FailOver(i)
		if err != nil {
			continue // last shard standing: nothing left to re-home onto
		}
		ev := RehomeEvent{Window: s.window, Shard: i,
			Moved: rep.Moved, Lost: rep.Lost, Took: rep.Took}
		if s.p.SatMbpsPerShard > 0 {
			s.deny = faults.BrownoutDeny(s.p.OfferedMbps, s.capacity(), s.p.Shares)
			_ = s.cl.ApplyDeny(s.deny)
			ev.Deny = s.deny
		}
		if s.p.RestartSource.BytesPerSec > 0 {
			s.restarts = append(s.restarts, restartJob{shard: i, ready: s.window + s.RestartWindows()})
		}
		out = append(out, ev)
	}
	return out
}

// RestartWindows is how many boundaries after a fail-over the restart
// runs: the reload's cluster.RestartCycles at the policy's source speed,
// rounded up to whole windows (one window when WindowCycles is 0).
func (s *Supervisor) RestartWindows() int {
	if s.p.WindowCycles == 0 {
		return 1
	}
	need := cluster.RestartCycles(s.cl.CoresPerShard(), s.p.RestartSource)
	return max(1, int((need+s.p.WindowCycles-1)/s.p.WindowCycles))
}

// heal runs the recovery side: due restarts rebuild, rejoin and reload
// their shard voice-first, then the brownout mask lifts one class per
// boundary — highest priority first — once the measured offered load
// fits under the healthy capacity.
func (s *Supervisor) heal(measured float64) []HealEvent {
	var out []HealEvent
	kept := s.restarts[:0]
	for _, job := range s.restarts {
		if s.window < job.ready {
			kept = append(kept, job)
			continue
		}
		rep, err := s.cl.Restart(job.shard, s.p.RestartSource)
		if err != nil {
			continue // dropped; a still-dead shard is re-detected
		}
		moved, _ := s.cl.RebalanceInto(job.shard)
		// The rebuilt shard's heartbeat restarts from zero: re-base the
		// detector so the fresh incarnation is watched (and a second
		// crash of the same slot stays detectable).
		hs := s.cl.Snapshot().Shards[job.shard]
		s.lastHB[job.shard], s.lastOffered[job.shard] = hs.Heartbeat, hs.OfferedBytes
		out = append(out, HealEvent{Window: s.window, Shard: job.shard,
			Restarted: true, RestartCycles: rep.Took, Rebalanced: moved, Deny: s.deny})
	}
	s.restarts = kept
	if s.p.SatMbpsPerShard <= 0 || s.deny == ([qos.NumClasses]bool{}) {
		return out
	}
	capacity := s.capacity()
	want := faults.BrownoutDeny(s.p.OfferedMbps, capacity, s.p.Shares)
	for class := qos.NumClasses - 1; class >= 0; class-- {
		if !s.deny[class] || want[class] {
			continue
		}
		if measured <= capacity {
			s.deny[class] = false
			_ = s.cl.ApplyDeny(s.deny)
			out = append(out, HealEvent{Window: s.window, Shard: -1, Deny: s.deny})
		}
		break
	}
	return out
}

// capacity is the healthy shards' serving capacity: shards neither
// quarantined nor crashed, times the per-shard saturation.
func (s *Supervisor) capacity() float64 {
	healthy := 0
	for _, sm := range s.cl.Snapshot().Shards {
		if !sm.Quarantined && !sm.Crashed {
			healthy++
		}
	}
	return float64(healthy) * s.p.SatMbpsPerShard
}
