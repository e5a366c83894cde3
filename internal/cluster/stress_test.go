package cluster

import (
	"reflect"
	"testing"

	"mccp/internal/sim"
	"mccp/internal/trafficgen"
)

// TestParallelDrainStress is the pipelined dispatcher's contract test,
// designed to run under -race: large concurrent Submit bursts
// across 8 shards with irregular flush points, asserting that (1) every
// callback is delivered on the caller's goroutine in exact enqueue order
// — the sequence-numbered merge of 8 concurrent completion streams — and
// (2) per-shard output digests are stable across runs. Burst sizes
// exceed BatchWindow x RingDepth so dispatch exercises ring backpressure,
// and the tiny ring depth forces maximum interleaving between the front
// end and the shard goroutines.
func TestParallelDrainStress(t *testing.T) {
	const (
		shards  = 8
		packets = 1200
	)
	run := func() ([]int, []uint64) {
		cl, err := New(Config{
			Shards:        shards,
			Router:        RouterLeastLoaded,
			QueueRequests: true,
			Seed:          7,
			BatchWindow:   24,
			RingDepth:     2,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()

		var sessions []*Session
		for i, std := range []trafficgen.Standard{
			trafficgen.VoiceUMTS, trafficgen.WiFiCCMP, trafficgen.WiMaxGCM, trafficgen.VideoGCM256,
		} {
			for k := 0; k < 4; k++ { // 16 sessions over 8 shards
				ses, err := cl.Open(OpenSpec{Suite: trafficgen.SuiteFor(std), KeyLen: std.KeyLen})
				if err != nil {
					t.Fatalf("open %d/%d: %v", i, k, err)
				}
				sessions = append(sessions, ses)
			}
		}

		gen := trafficgen.NewGenerator(99, trafficgen.DefaultMix)
		order := make([]int, 0, packets)
		digests := make([]uint64, shards)
		for i := range digests {
			digests[i] = 0xcbf29ce484222325
		}
		for p := 0; p < packets; p++ {
			p := p
			si := p % len(sessions)
			ses := sessions[si]
			pkt := gen.Next(si/4, ses.ID()) // standard matching the session's suite
			shardID := ses.Shard()
			ses.Submit(Op{Nonce: pkt.Nonce, AAD: pkt.AAD, Data: pkt.Payload}, func(out []byte, _ sim.Time, err error) {
				if err != nil {
					t.Errorf("packet %d: %v", p, err)
				}
				order = append(order, p)
				d := digests[shardID]
				for _, by := range out {
					d = (d ^ uint64(by)) * 0x100000001b3
				}
				digests[shardID] = d
				trafficgen.ReleasePacket(pkt)
			})
			// Irregular explicit flush points on top of the automatic
			// BatchWindow dispatches.
			if p%317 == 316 {
				cl.Flush()
			}
		}
		cl.Flush()
		if len(order) != packets {
			t.Fatalf("delivered %d/%d callbacks", len(order), packets)
		}
		for i, p := range order {
			if p != i {
				t.Fatalf("callback order broken at %d: got packet %d", i, p)
			}
		}
		return order, digests
	}

	_, d1 := run()
	_, d2 := run()
	if !reflect.DeepEqual(d1, d2) {
		t.Fatalf("per-shard digests not stable across runs:\n%#x\n%#x", d1, d2)
	}
}

// TestPerShardGenDeterminism pins the scale-out sweep mode: per-shard
// parallel generation must be a pure function of the configuration —
// identical digests, cycles and class counters across runs — even though
// the packets are produced by concurrent goroutines.
func TestPerShardGenDeterminism(t *testing.T) {
	run := func() WorkloadResult {
		res, err := RunWorkload(WorkloadConfig{
			Shards: 4, Router: RouterLeastLoaded, QueueRequests: true,
			Packets: 192, Sessions: 12, Seed: 5, BatchWindow: 48,
			PerShardGen: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.ShardDigests, b.ShardDigests) {
		t.Fatalf("sweep digests differ:\n%#x\n%#x", a.ShardDigests, b.ShardDigests)
	}
	if a.Metrics.ClusterCycles != b.Metrics.ClusterCycles || a.Metrics.Packets != b.Metrics.Packets {
		t.Fatalf("sweep metrics differ: %d/%d vs %d/%d cycles/packets",
			a.Metrics.ClusterCycles, a.Metrics.Packets, b.Metrics.ClusterCycles, b.Metrics.Packets)
	}
	if a.ClassPackets != b.ClassPackets {
		t.Fatalf("sweep class counters differ: %v vs %v", a.ClassPackets, b.ClassPackets)
	}
}

// TestPrefetchMatchesSynchronous pins the prefetched generator to the
// synchronous path bit-for-bit: same digests, same cycles, same metrics —
// prefetching may only change wall-clock overlap.
func TestPrefetchMatchesSynchronous(t *testing.T) {
	base := WorkloadConfig{
		Shards: 4, Router: RouterLeastLoaded, QueueRequests: true,
		Packets: 128, Sessions: 16, Seed: 1, BatchWindow: 32,
	}
	sync, err := RunWorkload(base)
	if err != nil {
		t.Fatal(err)
	}
	pre := base
	pre.PrefetchDepth = 64
	fetched, err := RunWorkload(pre)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sync.ShardDigests, fetched.ShardDigests) {
		t.Fatalf("prefetch changed digests:\n%#x\n%#x", sync.ShardDigests, fetched.ShardDigests)
	}
	if sync.Metrics.ClusterCycles != fetched.Metrics.ClusterCycles ||
		sync.Metrics.Bytes != fetched.Metrics.Bytes {
		t.Fatalf("prefetch changed virtual metrics: %d/%d vs %d/%d",
			sync.Metrics.ClusterCycles, sync.Metrics.Bytes,
			fetched.Metrics.ClusterCycles, fetched.Metrics.Bytes)
	}
	// The per-shard virtual timelines must match exactly as well.
	for i := range sync.Metrics.Shards {
		sa, sb := sync.Metrics.Shards[i], fetched.Metrics.Shards[i]
		if sa.Cycles != sb.Cycles || sa.Packets != sb.Packets {
			t.Fatalf("shard %d: %d cycles/%d packets (sync) vs %d/%d (prefetch)",
				i, sa.Cycles, sa.Packets, sb.Cycles, sb.Packets)
		}
	}
}
