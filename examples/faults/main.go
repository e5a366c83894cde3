// Faults walkthrough: crash a shard under a seeded fault schedule, watch
// the heartbeat freeze betray it, fail over its sessions voice-first
// onto the survivors, and brown out the low classes while capacity is
// down. Every step is deterministic virtual time — run it twice and the
// crash fires at the same cycle.
package main

import (
	"errors"
	"fmt"
	"log"

	"mccp"
)

func main() {
	// A shaped 4-shard cluster: per-shard QoS shapers are what give the
	// fault plane its kill switch (a crashed shard fails everything with
	// mccp.ErrShardDown) and its brownout mask.
	cl, err := mccp.NewCluster(mccp.ClusterConfig{
		Shards:        4,
		Router:        mccp.RouterQoSAware,
		Policy:        "qos-priority",
		QueueRequests: true,
		Seed:          11,
		Shape:         true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	// Two sessions per class, spread by the QoS-aware router.
	classes := []mccp.QoSClass{mccp.QoSVoice, mccp.QoSVideo, mccp.QoSData, mccp.QoSBackground}
	var sessions []*mccp.ClusterSession
	for i := 0; i < 8; i++ {
		ses, err := cl.Open(mccp.ClusterOpenSpec{
			Suite:  mccp.Suite{Family: mccp.GCM, TagLen: 16, Priority: classes[i%4].Priority()},
			KeyLen: 16,
		})
		if err != nil {
			log.Fatal(err)
		}
		sessions = append(sessions, ses)
		fmt.Printf("session %d (%s) -> shard %d\n", ses.ID(), classes[i%4], ses.Shard())
	}

	// A seeded schedule: one crash, drawn deterministically. The same
	// seed always crashes the same shard at the same in-window offset.
	sched, err := mccp.PlanFaults(mccp.FaultPlanConfig{
		Seed: 7, Shards: 4, Windows: 4, Crashes: 1, FaultWindow: 1, WindowCycles: 100000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nschedule: %s\n", sched)
	crash := sched.Events[0]

	// Arm the crash to fire in the victim's very next batch, a virtual
	// offset into it. The arm is lock-free; the fault fires as a
	// discrete event on the shard's own clock.
	if err := cl.ArmShardCrash(crash.Shard, cl.NextHeartbeat(crash.Shard), crash.Offset); err != nil {
		log.Fatal(err)
	}

	// Drive traffic. Packets bound for the corpse fail with ErrShardDown;
	// everything else keeps flowing.
	nonce := make([]byte, 12)
	down := 0
	for round := 0; round < 4; round++ {
		for _, ses := range sessions {
			if _, err := ses.Do(mccp.ClusterOp{Nonce: nonce, Data: []byte("traffic during the fault")}); err != nil {
				if !errors.Is(err, mccp.ErrShardDown) {
					log.Fatal(err)
				}
				down++
			}
		}
	}
	fmt.Printf("%d packets failed with ErrShardDown while shard %d was dying\n", down, crash.Shard)

	// Detection: the dead shard's heartbeat counter froze in Snapshot.
	snap := cl.Snapshot()
	for _, sh := range snap.Shards {
		fmt.Printf("shard %d: heartbeat %d crashed=%v\n", sh.Shard, sh.Heartbeat, sh.Crashed)
	}

	// Fail over: quarantine the corpse and re-home its sessions onto the
	// survivors, voice first. Nothing is lost unless no survivor can
	// serve it.
	rep, err := cl.FailOver(crash.Shard)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfail-over: re-homed %d sessions (voice first), lost %d, in %d cycles\n",
		rep.Moved, rep.Lost, rep.Took)
	for _, ses := range sessions {
		if !ses.Closed() {
			fmt.Printf("session %d now on shard %d\n", ses.ID(), ses.Shard())
		}
	}

	// Brownout: with a quarter of the capacity gone, shed the lowest
	// classes first. Voice is never denied.
	share := [mccp.QoSNumClasses]float64{}
	share[mccp.QoSVoice], share[mccp.QoSVideo] = 0.2, 0.2
	share[mccp.QoSData], share[mccp.QoSBackground] = 0.2, 0.4
	deny := mccp.BrownoutDeny(4000, 3000, share)
	if err := cl.ApplyDeny(deny); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbrownout mask (offered 4000 Mbps on 3000 Mbps of survivors):\n")
	for _, class := range classes {
		fmt.Printf("  %-11s denied=%v\n", class, deny[class])
	}
	for _, ses := range sessions {
		if ses.Closed() {
			continue
		}
		_, err := ses.Do(mccp.ClusterOp{Nonce: nonce, Data: []byte("post-brownout")})
		switch {
		case err == nil:
		case errors.Is(err, mccp.ErrShed):
			fmt.Printf("session %d shed by the brownout\n", ses.ID())
		default:
			log.Fatal(err)
		}
	}
}
