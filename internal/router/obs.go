package router

import (
	"strconv"
	"time"

	"gcplus/internal/obs"
)

// This file builds the server's Prometheus registry. Two kinds of series
// coexist:
//
//   - Live instruments (per-stage latencies, queue wait, WAL appends,
//     snapshot wall time, transport round trips and request counts)
//     record on the hot path; a scrape renders whatever their atomics
//     say at that instant.
//   - Snapshot series (queue depths, validity ratios, WAL bytes, repair
//     counters, ...) come from shard state that only the owner goroutine
//     may read. Each is registered once, as a function of *Stats. A
//     scrape takes one epoch-consistent Stats() snapshot — the same one
//     /stats serves — and renders every snapshot series from it, so a
//     body never mixes two snapshots, even under concurrent scrapes, and
//     /metrics agrees with /stats about every counter it was rendered
//     from.
//
// Metric names are stable API: the CI observability smoke greps for the
// core series, and dashboards are built on them.

// serverObs bundles the registry with the live instruments the router
// itself records into: transportReqs counts ShardClient calls by service
// method at dispatch, shardRTT records the round trip of every query
// dispatch, per shard.
type serverObs struct {
	reg           *obs.Registry
	transportReqs map[string]*obs.Counter
	shardRTT      []*obs.Histogram
}

// noteTransport bumps the per-method transport request counter by n.
func (o *serverObs) noteTransport(method string, n int64) {
	if c := o.transportReqs[method]; c != nil {
		c.Add(n)
	}
}

// observeRTT records one query dispatch's round trip for shard i,
// citing the sampled trace (if any) as the bucket's exemplar.
func (o *serverObs) observeRTT(i int, d time.Duration, traceID uint64) {
	if i >= 0 && i < len(o.shardRTT) {
		o.shardRTT[i].Observe(d)
		if traceID != 0 {
			o.shardRTT[i].SetExemplar(d, traceID)
		}
	}
}

// stageHistNames orders the per-stage histogram series; the stage label
// values match the Metrics field vocabulary of the paper's evaluation.
var stageHistNames = []string{
	"query", "hit", "verify", "verify_cpu", "overhead", "consistency", "repair_verify", "plan",
}

// initObs builds the registry over the constructed shards. Called from
// New after the shards exist (cold or recovered) and before they start:
// registration is not concurrency-safe with scrapes, construction time
// is the one moment neither queries nor scrapes can be running.
func (s *Server) initObs() {
	o := &serverObs{reg: obs.NewRegistry()}
	r := o.reg
	// counter and gauge register one snapshot series: its name, help,
	// labels and the Stats field it is rendered from.
	counter := func(name, help string, l obs.Labels, f func(*Stats) int64) {
		r.CounterFunc(name, help, l, func(st any) int64 { return f(st.(*Stats)) })
	}
	gauge := func(name, help string, l obs.Labels, f func(*Stats) float64) {
		r.GaugeFunc(name, help, l, func(st any) float64 { return f(st.(*Stats)) })
	}

	counter("gcplus_queries_total",
		"Queries served (max per-shard count; every query touches every shard).", nil,
		func(st *Stats) int64 { return st.Queries })
	gauge("gcplus_epoch", "Current dataset version (applied update batches).", nil,
		func(st *Stats) float64 { return float64(st.Epoch) })
	gauge("gcplus_live_graphs", "Live dataset graphs across shards.", nil,
		func(st *Stats) float64 { return float64(st.LiveGraphs) })
	gauge("gcplus_hit_rate",
		"Mean per-shard fraction of measured queries answered with zero sub-iso tests.", nil,
		func(st *Stats) float64 { return st.HitRate })
	gauge("gcplus_cache_validity_ratio",
		"Mean per-shard fraction of (entry, live graph) validity bits currently set.", nil,
		func(st *Stats) float64 { return st.ValidityRatio })
	gauge("gcplus_cache_entries", "Admitted cache entries across shards.", nil,
		sumShards(func(ss *ShardStats) int { return ss.Cache.Entries }))
	gauge("gcplus_cache_window", "Admission-window entries across shards.", nil,
		sumShards(func(ss *ShardStats) int { return ss.Cache.Window }))
	gauge("gcplus_cache_capacity", "Configured cache capacity across shards.", nil,
		sumShards(func(ss *ShardStats) int { return ss.Cache.Capacity }))
	gauge("gcplus_repair_pending",
		"Invalidated (entry, graph) pairs queued for background repair.", nil,
		func(st *Stats) float64 { return float64(st.PendingRepairs) })
	counter("gcplus_repaired_bits_total",
		"Validity bits restored by the background repair pipeline.", nil,
		func(st *Stats) int64 { return st.RepairedBits })
	counter("gcplus_repair_dropped_total",
		"Invalidated pairs shed on a full repair queue (they stay invalid).", nil,
		func(st *Stats) int64 { return st.RepairDropped })
	counter("gcplus_slow_queries_total",
		"Queries captured by the slow-query log (0 when disabled).", nil,
		func(st *Stats) int64 { return st.SlowQueries })
	gauge("gcplus_uptime_seconds", "Seconds since this process built the server.", nil,
		func(st *Stats) float64 { return st.UptimeSec })
	gauge("gcplus_wal_bytes", "Current WAL segment bytes across shards.", nil,
		func(st *Stats) float64 { return float64(st.WALBytes) })
	counter("gcplus_wal_appends_total", "WAL append attempts across shards.", nil,
		func(st *Stats) int64 { return st.WALAppends })
	counter("gcplus_wal_append_errors_total", "Failed WAL appends across shards.", nil,
		func(st *Stats) int64 { return st.WALAppendErrors })
	counter("gcplus_snapshots_written_total",
		"Snapshot generations written by this process.", nil,
		func(st *Stats) int64 { return st.SnapshotsWritten })
	gauge("gcplus_last_snapshot_epoch",
		"Epoch of the newest durable snapshot generation.", nil,
		func(st *Stats) float64 { return float64(st.LastSnapshotEpoch) })
	counter("gcplus_plan_cache_hits_total",
		"Compiled-plan cache hits across shards (0 unless the planner is on).", nil,
		func(st *Stats) int64 { return st.PlanCacheHits })
	counter("gcplus_plan_cache_misses_total",
		"Compiled-plan cache misses across shards (0 unless the planner is on).", nil,
		func(st *Stats) int64 { return st.PlanCacheMisses })

	gauge("gcplus_degradation_level",
		"Active degradation rung (0 none, 1 capped-verify, 2 cache-bypass).", nil,
		func(st *Stats) float64 { return float64(st.DegradationLevel) })
	// A monotone float, hence a gauge despite the _total name.
	gauge("gcplus_degraded_seconds_total",
		"Total wall seconds spent at a degradation level above none.", nil,
		func(st *Stats) float64 { return st.DegradedSeconds })
	counter("gcplus_shed_total", "Requests fast-failed by admission control.",
		obs.Labels{"kind": "query"}, func(st *Stats) int64 { return st.ShedQueries })
	counter("gcplus_shed_total", "Requests fast-failed by admission control.",
		obs.Labels{"kind": "update"}, func(st *Stats) int64 { return st.ShedUpdates })
	gauge("gcplus_durable_epoch",
		"Newest epoch the server can currently prove durable (0 without persistence).", nil,
		func(st *Stats) float64 { return float64(st.DurableEpoch) })
	gauge("gcplus_wal_volatile_shards",
		"Shards whose WAL has an open durability gap awaiting snapshot rotation.", nil,
		func(st *Stats) float64 { return float64(st.WALVolatileShards) })
	for i, stage := range deadlineStages {
		counter("gcplus_deadline_exceeded_total",
			"Requests that expired their deadline, by the stage they gave up in.",
			obs.Labels{"stage": stage}, func(st *Stats) int64 { return st.deadlineByStage[i] })
	}

	o.transportReqs = make(map[string]*obs.Counter)
	for _, method := range []string{"query", "apply_op", "append_wal", "sync", "snapshot", "stats"} {
		o.transportReqs[method] = r.Counter("gcplus_transport_requests_total",
			"ShardClient requests dispatched by the router, by service method and transport.",
			obs.Labels{"method": method, "transport": s.transportKind})
	}

	o.shardRTT = make([]*obs.Histogram, len(s.hosts))
	for sid, h := range s.hosts {
		id := strconv.Itoa(sid)
		lbl := obs.Labels{"shard": id}
		hists := h.Runtime().StageHists()
		for i, hist := range []*obs.Histogram{
			hists.Query, hists.Hit, hists.Verify, hists.VerifyCPU,
			hists.Overhead, hists.Consistency, hists.RepairVerify, hists.Plan,
		} {
			r.RegisterHistogram("gcplus_stage_duration_seconds",
				"Per-stage query processing latency, by shard and stage.",
				obs.Labels{"shard": id, "stage": stageHistNames[i]}, hist)
		}
		r.RegisterHistogram("gcplus_queue_wait_seconds",
			"Time jobs spend queued behind the shard owner goroutine.",
			lbl, h.QueueWaitHist())
		if s.walWanted() {
			r.RegisterHistogram("gcplus_wal_append_duration_seconds",
				"WAL batch append latency (encode + write + fsync).",
				lbl, h.WALAppendHist())
		}
		o.shardRTT[sid] = r.Histogram("gcplus_transport_rtt_seconds",
			"Router-observed round trip of query dispatches, by shard and transport.",
			obs.Labels{"shard": id, "transport": s.transportKind})

		shard := func(st *Stats) *ShardStats { return &st.PerShard[sid] }
		counter("gcplus_shard_queries_total", "Queries processed by the shard runtime.", lbl,
			func(st *Stats) int64 { return shard(st).Metrics.Queries })
		gauge("gcplus_shard_live_graphs", "Live graphs in the shard partition.", lbl,
			func(st *Stats) float64 { return float64(shard(st).LiveGraphs) })
		gauge("gcplus_shard_hit_rate",
			"Shard fraction of measured queries answered with zero sub-iso tests.", lbl,
			func(st *Stats) float64 { return shard(st).HitRate })
		gauge("gcplus_shard_validity_ratio", "Shard fraction of validity bits currently set.", lbl,
			func(st *Stats) float64 { return shard(st).ValidityRatio })
		gauge("gcplus_shard_queue_len", "Shard job-queue depth at snapshot time.", lbl,
			func(st *Stats) float64 { return float64(shard(st).QueueLen) })
		gauge("gcplus_shard_repair_pending", "Shard repair-queue depth.", lbl,
			func(st *Stats) float64 { return float64(shard(st).Cache.PendingRepairs) })
		counter("gcplus_shard_repair_dropped_total",
			"Shard invalidated pairs shed on a full repair queue.", lbl,
			func(st *Stats) int64 { return shard(st).Cache.RepairDropped })
		gauge("gcplus_shard_wal_bytes", "Shard current WAL segment bytes.", lbl,
			func(st *Stats) float64 { return float64(shard(st).WALBytes) })
	}
	if s.store != nil {
		s.snapHist = r.Histogram("gcplus_snapshot_duration_seconds",
			"Snapshot generation wall time, enqueue to durable.", nil)
	}
	s.obs = o
}

// sumShards is a gauge source summing f over the snapshot's shards.
func sumShards(f func(*ShardStats) int) func(*Stats) float64 {
	return func(st *Stats) float64 {
		n := 0
		for i := range st.PerShard {
			n += f(&st.PerShard[i])
		}
		return float64(n)
	}
}
