package harness

import (
	"fmt"
	"net"
	"strings"

	"mccp/internal/arrivals"
	"mccp/internal/cluster"
	"mccp/internal/cryptocore"
	"mccp/internal/fleet"
	"mccp/internal/qos"
	"mccp/internal/server"
	"mccp/internal/sim"
)

// This file is experiment E14: wire-level latency curves. E13 measured
// the QoS story in-process — arrivals fed a shaper sitting directly on a
// device. Here the same open-loop mixes cross a service boundary: an
// mccpserver fronts the cluster, an open-loop client generates per-
// session arrival streams on a wire clock, batches each fixed window
// behind a FLUSH barrier, and measures end-to-end wire latency — the
// client-side batching wait plus the shard-side service cycles each
// response reports. On the loopback transport with one connection the
// whole table is a pure function of (config, seed): bit-reproducible,
// CI-runnable, and still showing the saturation knee with voice held
// flat under qos-priority.

// WireMix is the E14 class mix: E13's LoadMix with deadline budgets on
// the bulk classes. On the wire every packet inherits its session's
// deadline; the bulk budget (~1.5 client windows) is what converts a
// shard's growing per-window drain time into expiry verdicts past the
// knee, while voice keeps E13's generous 16000-cycle budget and the
// strict-priority drain keeps its service wait flat.
var WireMix = []arrivals.ClassProfile{
	{Class: qos.Voice, Share: 0.10, Bytes: 256, Family: cryptocore.FamilyCCM, KeyLen: 16, TagLen: 8, Deadline: 16000},
	{Class: qos.Video, Share: 0.15, Bytes: 1024, Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16, Deadline: 12000},
	{Class: qos.Data, Share: 0.15, Bytes: 512, Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16, Deadline: 12000},
	{Class: qos.Background, Share: 0.60, Bytes: 2048, Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16, Deadline: 12000},
}

// WireConfig parameterizes WireLatency.
type WireConfig struct {
	// Shards and CoresPerShard size the backend cluster (defaults 2 and
	// 4); Router and Policy its routing and dispatch (defaults qos-aware
	// and qos-priority); Drain the per-shard shaper policy.
	Shards, CoresPerShard int
	Router, Policy, Drain string
	// Sessions is the concurrent wire session count (default 1000 —
	// the E14 table's 10^3 point; the server stress test covers 10^5).
	Sessions int
	// Offered are the load points as fractions of cluster saturation
	// (default DefaultOfferedPoints).
	Offered []float64
	// WindowCycles is the client batching window on the wire clock
	// (default 8192); Windows the measurement length per point (default
	// 48).
	WindowCycles sim.Time
	Windows      int
	// BatchOps is the server's size trigger (default 256, above any
	// window's packet count, so the per-window FLUSH is the only batch
	// boundary and the run is sequence-deterministic).
	BatchOps int
	// Capacity and QueueDepth size each shard's shaper (defaults 4, 16).
	Capacity, QueueDepth int
	// Mix, Process, Seed as in the E13 config (defaults WireMix,
	// poisson, 31).
	Mix     []arrivals.ClassProfile
	Process string
	Seed    uint64
}

func (c *WireConfig) fill() {
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.CoresPerShard <= 0 {
		c.CoresPerShard = 4
	}
	if c.Router == "" {
		c.Router = "qos-aware"
	}
	if c.Policy == "" {
		c.Policy = "qos-priority"
	}
	if c.Sessions <= 0 {
		c.Sessions = 1000
	}
	if len(c.Offered) == 0 {
		c.Offered = DefaultOfferedPoints
	}
	if c.WindowCycles == 0 {
		c.WindowCycles = 8192
	}
	if c.Windows <= 0 {
		c.Windows = 48
	}
	if c.BatchOps <= 0 {
		c.BatchOps = 256
	}
	if c.Capacity <= 0 {
		c.Capacity = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if len(c.Mix) == 0 {
		c.Mix = WireMix
	}
	if c.Seed == 0 {
		c.Seed = 31
	}
}

// WirePoint is one offered-rate measurement of the E14 table.
type WirePoint struct {
	Offered  float64
	Sessions int
	// Classes are highest priority first. Latencies are end-to-end wire
	// latency in cycles — batching wait (window end minus arrival on the
	// wire clock) plus shard-side service; DeliveredMbps is over the
	// wire-clock horizon (the wire does not meter per-class offered
	// volume, so OfferedMbps is 0).
	Classes qos.Cells
	// Totals: WireMbps is the delivered wire throughput over the
	// horizon.
	TotalOfferedMbps float64
	WireMbps         float64
	TotalLossFrac    float64
	// ArrivalDigest witnesses the generated arrival stream;
	// ServerDigests are the server's per-shard output-byte folds
	// (RETRIEVE_DATA); ClusterCycles the slowest shard's virtual time.
	ArrivalDigest uint64
	ServerDigests []uint64
	ClusterCycles sim.Time
}

// WireResult is the E14 table.
type WireResult struct {
	// SaturationMbps is the calibrated cluster capacity for the mix.
	SaturationMbps float64
	Policy         string
	Sessions       int
	Points         []WirePoint
}

// WireLatency runs E14: for each offered point it starts a fresh
// loopback server in front of a fresh cluster, opens cfg.Sessions
// sessions, replays the open-loop mix through the wire protocol and
// tears everything down. Single connection, no wall-clock flush trigger:
// the table is deterministic.
func WireLatency(cfg WireConfig) WireResult {
	cfg.fill()
	sat := cfg.saturation()
	res := WireResult{SaturationMbps: sat, Policy: cfg.Policy, Sessions: cfg.Sessions}
	for _, offered := range cfg.Offered {
		res.Points = append(res.Points, WirePointRun(offered, sat, cfg))
	}
	return res
}

// WirePointRun measures one offered point of the E14 table.
func WirePointRun(offered, satMbps float64, cfg WireConfig) WirePoint {
	cfg.fill()
	srv, load := cfg.serve(nil, cfg.loadConfig(offered, satMbps))
	defer srv.Close()
	return buildWirePoint(offered, satMbps, cfg.Sessions, load)
}

// saturation is the calibrated cluster capacity for the mix: the
// per-shard mix saturation times the shard count, scaled to the cores
// per shard. The config must be filled.
func (c WireConfig) saturation() float64 {
	return SaturationMbps(c.Mix) * float64(c.Shards) * float64(c.CoresPerShard) / 4
}

// loadConfig is the open-loop client load at offered x satMbps.
func (c WireConfig) loadConfig(offered, satMbps float64) server.LoadConfig {
	return server.LoadConfig{
		Sessions:     c.Sessions,
		Mix:          c.Mix,
		Process:      c.Process,
		BitsPerCycle: offered * satMbps * 1e6 / sim.DefaultFreqHz,
		WindowCycles: c.WindowCycles,
		Windows:      c.Windows,
		Seed:         c.Seed,
	}
}

// serve starts a loopback mccpserver in front of a fresh cluster built
// from the config — with its fleet supervisor armed when faults is set — and
// replays load through it on one connection. The caller closes the
// returned server.
func (c WireConfig) serve(faults *fleet.Policy, load server.LoadConfig) (*server.Server, server.LoadResult) {
	srv, err := server.New(server.Config{
		Cluster: cluster.Config{
			Shards:        c.Shards,
			CoresPerShard: c.CoresPerShard,
			Router:        c.Router,
			Policy:        c.Policy,
			QueueRequests: true,
			Shape:         true,
			// The whole batch enters the shaper as one burst, anchoring
			// deadline budgets at batch start and letting the class
			// queues express the drain order — the wire analogue of
			// E13's open-loop shaper feed.
			ShardWindow: c.BatchOps,
			Seed:        c.Seed,
			Shaper: qos.Config{
				Capacity:   c.Capacity,
				QueueDepth: c.QueueDepth,
				Drain:      c.Drain,
			},
		},
		BatchOps: c.BatchOps,
		Faults:   faults,
	})
	if err != nil {
		panic(err) // experiment drivers pass literal configurations
	}
	lb := server.NewLoopback()
	srv.Serve(lb)
	res, err := server.RunLoad(func() (net.Conn, error) { return lb.Dial() }, load)
	if err != nil {
		panic(err)
	}
	return srv, res
}

// buildWirePoint reduces one RunLoad outcome to a table point — shared
// by the E14 wire curves and the E16 fault curves, so a fault table's
// zero-fault row is computed by the very same code as the E14 baseline.
func buildWirePoint(offered, satMbps float64, sessions int, load server.LoadResult) WirePoint {
	point := WirePoint{
		Offered:          offered,
		Sessions:         sessions,
		TotalOfferedMbps: offered * satMbps,
		ArrivalDigest:    load.ArrivalDigest,
	}
	if load.Stats != nil {
		point.ServerDigests = load.Stats.Digests
		point.ClusterCycles = load.Stats.ClusterCycles
	}
	var deliveredBytes uint64
	for _, class := range qos.Classes() {
		cl := load.Classes[class]
		st := qos.ClassStats{
			Class:     class,
			Submitted: cl.Submitted,
			Completed: cl.OK,
			Rejected:  cl.Rejected,
			Shed:      cl.Shed,
			Expired:   cl.Expired,
			Aged:      cl.Aged,
			Failed:    cl.AuthFail + cl.Failed,
		}
		point.Classes = append(point.Classes,
			qos.NewClassCell(st, cl.WireSamples, 0, cl.DeliveredBytes, load.HorizonCycles))
		deliveredBytes += cl.DeliveredBytes
	}
	point.WireMbps = qos.MbpsOver(deliveredBytes, load.HorizonCycles)
	point.TotalLossFrac = point.Classes.LossFrac()
	return point
}

// FormatWireLatency renders the E14 table.
func FormatWireLatency(r WireResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Wire-level latency curves (E14): loopback mccpserver, %d sessions, policy %s, cluster saturation ~%.0f Mbps\n",
		r.Sessions, r.Policy, r.SaturationMbps)
	fmt.Fprintf(&b, "wire latency = client batching wait + shard service; loss%% = arrivals not delivered (verdict mix at right)\n")
	fmt.Fprintf(&b, "%8s | %9s %9s | %10s %10s | %10s %10s %8s | %8s %8s %8s\n",
		"offered", "off Mbps", "wire Mbps",
		"v p50 cyc", "v p99 cyc", "bg p50", "bg p99", "bg loss%", "shed", "expired", "aged")
	for _, p := range r.Points {
		v, bg := p.Classes.Cell(qos.Voice), p.Classes.Cell(qos.Background)
		var shed, expired, aged uint64
		for _, c := range p.Classes {
			shed += c.Shed
			expired += c.Expired
			aged += c.Aged
		}
		fmt.Fprintf(&b, "%7.2fx | %9.0f %9.0f | %10d %10d | %10d %10d %7.2f%% | %8d %8d %8d\n",
			p.Offered, p.TotalOfferedMbps, p.WireMbps,
			v.P50, v.P99, bg.P50, bg.P99, 100*bg.LossFrac, shed, expired, aged)
	}
	return b.String()
}

// WireSmoke runs the one-point loopback E14 gate CI checks: at half the
// saturation load the service boundary may cost voice at most a factor
// of two in wire p99 versus the in-process E13 measurement at the same
// point, and may shed no voice packet. Small on purpose: one offered
// point, a short window, 64 sessions. Measured is the WirePoint.
func WireSmoke() Verdict {
	e13 := LoadPointRun("qos-priority", 0.5, SaturationMbps(LoadMix),
		LoadCurveConfig{BackgroundPackets: 120})
	res := WireLatency(WireConfig{
		Sessions:     64,
		Offered:      []float64{0.5},
		WindowCycles: 4096,
		Windows:      24,
	})
	p := res.Points[0]
	voice, bg := p.Classes.Cell(qos.Voice), p.Classes.Cell(qos.Background)
	e13P99 := e13.Classes.Cell(qos.Voice).P99
	return Verdict{
		Gate: "wire",
		Checks: []Check{
			check("voice wire p99 at 0.5x saturation", float64(voice.P99) <= 2*float64(e13P99),
				"%d cycles vs %d in-process (limit 2x)", voice.P99, e13P99),
			check("voice shed", voice.Shed == 0, "%d (limit 0)", voice.Shed),
		},
		Notes: []string{fmt.Sprintf("offered %.2fx: wire %.0f Mbps, background wire p99 %d cyc, loss %.2f%%",
			p.Offered, p.WireMbps, bg.P99, 100*bg.LossFrac)},
		Measured: p,
	}
}
