package cluster

import (
	"fmt"

	"mccp/internal/obs"
	"mccp/internal/qos"
	"mccp/internal/sim"
	"mccp/internal/verdict"
)

// This file is the cluster's face of the observability plane: the
// postmortem reader over every shard's flight recorder, the traced-span
// export, and the metrics-registry collector that exposes the cluster
// snapshot through the same read path as every other metric.

// Postmortems returns every frozen flight-recorder dump in the cluster:
// dumps archived from shard incarnations retired by Restart, then each
// live shard's dumps, shard order then freeze order. Safe from any
// goroutine — recorders are internally locked and the shard-slot swap a
// Restart performs is coordinated through the same mutex.
func (c *Cluster) Postmortems() []obs.Dump {
	c.obsMu.Lock()
	defer c.obsMu.Unlock()
	out := append([]obs.Dump(nil), c.postmortems...)
	for _, sh := range c.shards {
		out = append(out, sh.rec.Dumps()...)
	}
	return out
}

// TraceSpans flushes the pipeline and returns every shard's recorded
// spans, shard order then start order (each span's Tag is its shard ID).
// Nil unless the cluster was built with Shape and Trace.Enabled.
// Front-end-only, like every flushing read.
func (c *Cluster) TraceSpans() []obs.Span {
	c.Flush()
	var out []obs.Span
	for _, sh := range c.shards {
		out = append(out, sh.tr.Spans()...)
	}
	return out
}

// TraceDigest flushes and folds every shard's span digest into one
// cluster fingerprint (FNV-64a over the per-shard digests in shard
// order). Deterministic: host timestamps are excluded at the shard
// level. Front-end-only.
func (c *Cluster) TraceDigest() uint64 {
	c.Flush()
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	for _, sh := range c.shards {
		d := sh.tr.Digest()
		for i := 0; i < 8; i++ {
			h ^= (d >> (8 * i)) & 0xff
			h *= prime
		}
	}
	return h
}

// RegisterMetrics exposes the cluster through a metrics registry: one
// pull collector that reads Snapshot (safe from any goroutine, never
// stops the pipeline) and emits the cluster's counters under the
// mccp_cluster_* namespace. This is the scattered-counters replacement:
// the text endpoint, the STATS wire op and the CLI report all read the
// same collector.
func (c *Cluster) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterFunc(func(emit func(s obs.Sample)) {
		m := c.Snapshot()
		emit(obs.Sample{Name: "mccp_cluster_packets_total", Value: float64(m.Packets)})
		emit(obs.Sample{Name: "mccp_cluster_delivered_bytes_total", Value: float64(m.Bytes)})
		emit(obs.Sample{Name: "mccp_cluster_offered_bytes_total", Value: float64(m.OfferedBytes)})
		emit(obs.Sample{Name: "mccp_cluster_auth_fails_total", Value: float64(m.AuthFails)})
		emit(obs.Sample{Name: "mccp_cluster_rejected_total", Value: float64(m.Rejected)})
		emit(obs.Sample{Name: "mccp_cluster_queued_total", Value: float64(m.Queued)})
		emit(obs.Sample{Name: "mccp_cluster_shed_total", Value: float64(m.Shed)})
		emit(obs.Sample{Name: "mccp_cluster_batches_total", Value: float64(m.Batches)})
		emit(obs.Sample{Name: "mccp_cluster_flushes_total", Value: float64(m.Flushes)})
		emit(obs.Sample{Name: "mccp_cluster_cycles", Value: float64(m.ClusterCycles)})
		emit(obs.Sample{Name: "mccp_cluster_sim_mbps", Value: m.AggregateSimMbps})
		emit(obs.Sample{Name: "mccp_cluster_host_mbps", Value: m.HostMbps})
		emit(obs.Sample{Name: "mccp_cluster_wall_seconds", Value: m.WallSeconds})
		for v := verdict.OK; int(v) < verdict.Num; v++ {
			var n uint64
			switch v {
			case verdict.OK:
				n = m.Verdicts.OK
			case verdict.Rejected:
				n = m.Verdicts.Rejected
			case verdict.Shed:
				n = m.Verdicts.Shed
			case verdict.Expired:
				n = m.Verdicts.Expired
			case verdict.Aged:
				n = m.Verdicts.Aged
			case verdict.AuthFail:
				n = m.Verdicts.AuthFail
			case verdict.Failed:
				n = m.Verdicts.Failed
			}
			emit(obs.Sample{
				Name:   "mccp_cluster_verdicts_total",
				Labels: fmt.Sprintf("verdict=%q", v.String()),
				Value:  float64(n),
			})
		}
		for _, sh := range m.Shards {
			l := fmt.Sprintf("shard=\"%d\"", sh.Shard)
			emit(obs.Sample{Name: "mccp_shard_packets_total", Labels: l, Value: float64(sh.Packets)})
			emit(obs.Sample{Name: "mccp_shard_delivered_bytes_total", Labels: l, Value: float64(sh.Bytes)})
			emit(obs.Sample{Name: "mccp_shard_sessions", Labels: l, Value: float64(sh.Sessions)})
			emit(obs.Sample{Name: "mccp_shard_cycles", Labels: l, Value: float64(sh.Cycles)})
			emit(obs.Sample{Name: "mccp_shard_heartbeat", Labels: l, Value: float64(sh.Heartbeat)})
			emit(obs.Sample{Name: "mccp_shard_crashed", Labels: l, Value: b2f(sh.Crashed)})
			emit(obs.Sample{Name: "mccp_shard_quarantined", Labels: l, Value: b2f(sh.Quarantined)})
			emit(obs.Sample{Name: "mccp_shard_crossbar_busy_cycles", Labels: l, Value: float64(sh.CrossbarBusy)})
			emit(obs.Sample{Name: "mccp_shard_key_expansions_total", Labels: l, Value: float64(sh.KeyExpansions)})
		}
		for _, cs := range m.Classes {
			l := fmt.Sprintf("class=%q", cs.Class.String())
			emit(obs.Sample{Name: "mccp_class_submitted_total", Labels: l, Value: float64(cs.Submitted)})
			emit(obs.Sample{Name: "mccp_class_completed_total", Labels: l, Value: float64(cs.Completed)})
			emit(obs.Sample{Name: "mccp_class_shed_total", Labels: l, Value: float64(cs.Shed)})
			emit(obs.Sample{Name: "mccp_class_expired_total", Labels: l, Value: float64(cs.Expired)})
			emit(obs.Sample{Name: "mccp_class_aged_total", Labels: l, Value: float64(cs.Aged)})
			emit(obs.Sample{Name: "mccp_class_deadline_misses_total", Labels: l, Value: float64(cs.DeadlineMisses)})
			emit(obs.Sample{Name: "mccp_class_delivered_bytes_total", Labels: l, Value: float64(cs.Bytes)})
		}
		emit(obs.Sample{Name: "mccp_postmortems", Value: float64(len(c.Postmortems()))})
	})
}

// b2f renders a bool as the conventional 0/1 gauge value.
func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// ClassLatencyHistogramBounds are the bucket upper bounds (in cycles)
// CLIs use when exposing per-class latency as a registry histogram.
var ClassLatencyHistogramBounds = []float64{
	1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 500000, 1e6,
}

// ObserveClassLatencies feeds every shard's recorded per-class latency
// samples into per-class histograms from the registry (one call after a
// run; front-end-only, flushes first). It returns the sample counts per
// class, highest priority first.
func (c *Cluster) ObserveClassLatencies(reg *obs.Registry) []int {
	if !c.cfg.Shape {
		return nil
	}
	c.Flush()
	counts := make([]int, 0, qos.NumClasses)
	for _, class := range qos.Classes() {
		h := reg.Histogram(
			fmt.Sprintf("mccp_class_latency_cycles_%s", class.String()),
			ClassLatencyHistogramBounds)
		var samples []sim.Time
		for _, sh := range c.shards {
			samples = sh.shaper.AppendLatencySamples(class, samples)
		}
		for _, s := range samples {
			h.Observe(float64(s))
		}
		counts = append(counts, len(samples))
	}
	return counts
}
