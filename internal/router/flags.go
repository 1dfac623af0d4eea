package router

import (
	"flag"
	"strconv"

	"gcplus/internal/cache"
)

// RegisterFlags binds every serving knob of o, including its cache
// configuration, to a command-line flag on fs. Each flag's default is
// the value already in o, so a caller presets its own defaults before
// registering; a zero field keeps its documented zero meaning. A nil
// o.Cache is replaced by an empty cache.Config, which means the same.
func (o *Options) RegisterFlags(fs *flag.FlagSet) {
	if o.Cache == nil {
		o.Cache = &cache.Config{}
	}
	c := o.Cache
	fs.IntVar(&o.Shards, "shards", o.Shards, "number of runtime shards (0 = default of 4)")
	fs.StringVar(&o.Method, "method", o.Method, "Method M verifier: VF2 (default), VF2+ or GQL")
	fs.TextVar(&c.Model, "model", c.Model, "cache consistency model: CON or EVI")
	fs.TextVar(&c.Policy, "policy", c.Policy, "cache replacement policy: HD (default), PIN, PINC, LRU or LFU")
	fs.IntVar(&c.Capacity, "cache", c.Capacity, "per-shard cache capacity (0 = default of 100; gcbench: the scale's)")
	fs.IntVar(&c.WindowSize, "window", c.WindowSize, "per-shard admission window size (0 = default of 20; gcbench: the scale's)")
	fs.BoolVar(&o.DisableCache, "nocache", o.DisableCache, "disable GC+ caching (raw Method M baseline)")
	fs.BoolVar(&o.EagerValidate, "eager", o.EagerValidate, "validate caches at update time instead of lazily at query time")
	fs.IntVar(&o.VerifyParallelism, "verify-parallelism", o.VerifyParallelism, "per-shard intra-query verification workers (0 = auto: GOMAXPROCS/shards, 1 = sequential)")
	fs.Var(invertedBool{&c.DisableHitIndex}, "hit-index", "maintain the cache query index for sub-linear hit discovery (false = linear scan reference)")
	fs.BoolVar(&o.EnablePlanner, "planner", o.EnablePlanner, "enable the cost-based query planner + compiled-plan cache (per-query algorithm choice; answers unchanged)")
	fs.IntVar(&o.PlanCacheSize, "plan-cache", o.PlanCacheSize, "per-shard compiled-plan cache size (0 = default of 256, negative = planning without plan caching; needs -planner)")
	fs.IntVar(&o.RepairParallelism, "repair-parallelism", o.RepairParallelism, "per-shard background cache-repair workers (0 = default of 1)")
	fs.BoolVar(&o.DisableRepair, "norepair", o.DisableRepair, "disable background cache repair (invalidated bits stay dead until a query re-verifies them)")
	fs.StringVar(&o.DataDir, "data-dir", o.DataDir, "durability directory: WAL + snapshots for crash-safe warm restarts (empty = no persistence; gcbench -warm-restart/-chaos: a fresh temp dir)")
	fs.IntVar(&o.SnapshotEvery, "snapshot-every", o.SnapshotEvery, "update batches between automatic snapshots (0 = default; needs -data-dir)")
	fs.BoolVar(&o.DisableWAL, "nowal", o.DisableWAL, "disable the write-ahead log, keeping snapshots only (a crash loses batches since the last snapshot)")
	fs.DurationVar(&o.SlowLogThreshold, "slowlog-threshold", o.SlowLogThreshold, "capture queries at/above this wall time into GET /debug/slowlog (0 = off)")
	fs.IntVar(&o.SlowLogSize, "slowlog-size", o.SlowLogSize, "slow-query ring capacity (0 = default of 128)")
	fs.Float64Var(&o.TraceSampleRate, "trace-sample-rate", o.TraceSampleRate, "fraction of requests head-sampled into GET /debug/traces (0 = default of 0.01, negative = tracing off; anomalous requests are always retained)")
	fs.IntVar(&o.TraceStoreSize, "trace-store-size", o.TraceStoreSize, "retained-trace ring capacity (0 = default of 256)")
	fs.IntVar(&o.ReadyMaxPendingRepairs, "ready-max-pending", o.ReadyMaxPendingRepairs, "readyz threshold: 503 while more invalidated pairs than this await repair (0 = default, negative = require empty backlog)")
	fs.DurationVar(&o.QueryTimeout, "query-timeout", o.QueryTimeout, "per-query deadline; exceeding it returns 504 (0 = no deadline)")
	fs.DurationVar(&o.UpdateTimeout, "update-timeout", o.UpdateTimeout, "per-update-batch deadline; expiring before application returns 504 with nothing applied (0 = no deadline)")
	fs.IntVar(&o.MaxInFlightQueries, "max-inflight-queries", o.MaxInFlightQueries, "admitted concurrent queries before shedding with 429 (0 = default of 64, negative = unlimited)")
	fs.IntVar(&o.MaxInFlightUpdates, "max-inflight-updates", o.MaxInFlightUpdates, "admitted concurrent update batches before shedding with 429 (0 = default of 16, negative = unlimited)")
	fs.StringVar(&o.WALPolicy, "wal-policy", o.WALPolicy, "WAL append-failure policy: fail-update (default; 503 the batch) or degrade-to-volatile (ack and raise the volatile-WAL alarm)")
	fs.StringVar(&o.Transport, "transport", o.Transport, "router→shard transport: local (default; in-process) or loopback (each shard behind its own 127.0.0.1 TCP connection; the cluster seed)")
	fs.BoolVar(&o.DisableDegradation, "nodegrade", o.DisableDegradation, "disable graceful degradation under overload (no verify capping or cache bypass)")
}

// invertedBool binds a Disable* field to a positive boolean flag.
type invertedBool struct{ disable *bool }

func (b invertedBool) String() string {
	// flag.PrintDefaults probes a zero invertedBool, which reads false.
	return strconv.FormatBool(b.disable != nil && !*b.disable)
}

func (b invertedBool) Set(s string) error {
	v, err := strconv.ParseBool(s)
	if err == nil {
		*b.disable = !v
	}
	return err
}

func (invertedBool) IsBoolFlag() bool { return true }
