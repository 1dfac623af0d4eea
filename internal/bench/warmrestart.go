package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"gcplus/internal/changeplan"
	"gcplus/internal/graph"
	"gcplus/internal/persist"
	"gcplus/internal/randx"
	"gcplus/internal/router"
)

// The -warm-restart benchmark measures what the durability subsystem
// buys: after a crash-shaped shutdown, how fast does a warm-restarted
// server return to full cache validity, and what hit rate does it serve
// at immediately, compared to (a) the pre-restart instance and (b) a
// cold start that rebuilds the dataset and re-warms the cache from
// scratch?
//
// The run has five phases over one deterministic query stream:
//
//  1. fill: the stream runs once against a durable server, with churn
//     update batches interleaved; a snapshot is forced at the end;
//  2. tail churn: more update batches land after the snapshot, so the
//     WAL has a tail to replay and validity bits to re-verify;
//  3. measure: the stream runs again — the pre-restart hit rate and the
//     reference answer digest — and the server is closed abruptly (no
//     final snapshot: the crash-recovery path is what is measured);
//  4. warm restart: a new server recovers from the data directory; the
//     benchmark clocks recovery and the time until background repair
//     restores full validity, then replays the stream for the warm hit
//     rate and digest;
//  5. cold baseline: a fresh non-durable server applies the same update
//     batches, then serves the same stream — the cold hit rate, and the
//     digest the warm answers must equal bit for bit.

// WarmRestartConfig sizes the warm-restart benchmark.
type WarmRestartConfig struct {
	// Options configures every instance in the comparison: pre-restart,
	// warm-restarted and cold baseline. The cache capacity defaults to
	// the stream length, so the whole stream stays resident and the
	// warm restart's recovered entries can serve every repeat, and the
	// window to the Scale's. DataDir defaults to a fresh temporary
	// directory, removed when the run ends; SnapshotEvery is ignored
	// (snapshots are forced explicitly).
	router.Options
	// Scale sizes the dataset (smoke/repro/paper).
	Scale Scale
	// Workload selects the query mix (default ZZ).
	Workload WorkloadSpec
	// Queries is the stream length (default Scale.Queries).
	Queries int
	// UpdateEvery interleaves one churn batch per this many fill-pass
	// queries (default 25; 0 disables).
	UpdateEvery int
	// OpsPerBatch is the churn batch size (default 5).
	OpsPerBatch int
	// TailBatches is the number of churn batches applied after the
	// snapshot — the WAL tail recovery must replay and repair
	// (default 4).
	TailBatches int
	// Seed drives dataset, workload and churn generation.
	Seed int64
}

func (c WarmRestartConfig) withDefaults() WarmRestartConfig {
	if c.Workload.Name == "" {
		c.Workload, _ = SpecByName("ZZ")
	}
	if c.Queries <= 0 {
		c.Queries = c.Scale.Queries
	}
	c.Options = withCacheDefaults(c.Options, c.Queries, c.Scale.WindowSize)
	if c.UpdateEvery < 0 {
		c.UpdateEvery = 0
	} else if c.UpdateEvery == 0 {
		c.UpdateEvery = 25
	}
	if c.OpsPerBatch <= 0 {
		c.OpsPerBatch = 5
	}
	if c.TailBatches <= 0 {
		c.TailBatches = 4
	}
	return c
}

// WarmRestartResult is the JSON summary the -warm-restart mode emits.
type WarmRestartResult struct {
	Mode          string `json:"mode"`
	Scale         string `json:"scale"`
	Workload      string `json:"workload"`
	Method        string `json:"method"`
	Shards        int    `json:"shards"`
	Queries       int    `json:"queries"`
	CacheCapacity int    `json:"cache_capacity"`
	UpdateBatches int    `json:"update_batches"`
	Transport     string `json:"transport"`
	Seed          int64  `json:"seed"`

	// PreRestartHitRate is the hit rate of the warmed pre-restart
	// instance over the measurement pass; WarmHitRate and ColdHitRate
	// are the warm-restarted and cold-started instances' hit rates over
	// the same stream — hit-rate-at-t with t = one stream length.
	PreRestartHitRate float64 `json:"pre_restart_hit_rate"`
	WarmHitRate       float64 `json:"warm_hit_rate_at_t"`
	ColdHitRate       float64 `json:"cold_hit_rate_at_t"`
	// WarmOverPre is WarmHitRate / PreRestartHitRate — the acceptance
	// metric (≥ 0.9: the warm instance reaches at least 90% of the
	// pre-restart hit rate).
	WarmOverPre float64 `json:"warm_over_pre"`

	// RecoveredEntries is the number of cache entries the warm restart
	// restored; WarmAdmitted counts entries admitted during the warm
	// pass (≈0: repeats refresh restored entries instead of recomputing
	// them from scratch).
	RecoveredEntries int    `json:"recovered_entries"`
	RecoveredEpoch   uint64 `json:"recovered_epoch"`
	WarmAdmitted     int64  `json:"warm_admitted"`

	// RecoveryMillis is the wall time of router.New on the persisted
	// state (snapshot load + WAL replay); TimeToFullValidityMillis adds
	// the background repair drain until every validity bit the replay
	// touched is re-verified.
	RecoveryMillis           float64 `json:"recovery_ms"`
	TimeToFullValidityMillis float64 `json:"time_to_full_validity_ms"`
	FinalValidityRatio       float64 `json:"final_validity_ratio"`
	RepairedBits             int64   `json:"repaired_bits"`
	WALBytes                 int64   `json:"wal_bytes"`

	// Digest equality proves the recovered instance answers
	// bit-identically to a cold rebuild over the identical stream.
	WarmAnswersFNV string `json:"warm_answers_fnv"`
	ColdAnswersFNV string `json:"cold_answers_fnv"`
	AnswersMatch   bool   `json:"answers_match"`
}

// RunWarmRestart runs the warm-restart benchmark.
func RunWarmRestart(cfg WarmRestartConfig, progress Progress) (*WarmRestartResult, error) {
	cfg = cfg.withDefaults()
	initial, err := generateDataset(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	wlScale := cfg.Scale
	if cfg.Queries > wlScale.Queries {
		wlScale.Queries = cfg.Queries
	}
	wl, err := memoizedWorkload(cfg.Workload, initial, wlScale, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	queries := wl.Queries[:min(cfg.Queries, len(wl.Queries))]

	dir := cfg.DataDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "gcplus-warm-restart-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else if persist.HasState(dir) {
		// A leftover store would warm-restart the *fill* phase and
		// poison every metric; demand a fresh directory.
		return nil, fmt.Errorf("bench: data dir %s already holds state; the warm-restart benchmark needs a fresh directory", dir)
	}
	persistOpts := cfg.Options
	persistOpts.DataDir = dir
	// Snapshots are forced explicitly so the WAL tail is exactly
	// TailBatches long; make the automatic trigger unreachable.
	persistOpts.SnapshotEvery = 1 << 30

	srvA, err := router.New(initial, persistOpts)
	if err != nil {
		return nil, err
	}
	// Error returns below must not leak srvA's goroutines, WAL files and
	// directory lock (the planned shutdown is the CloseAbrupt in phase 3).
	srvAClosed := false
	defer func() {
		if !srvAClosed {
			srvA.CloseAbrupt()
		}
	}()
	run := srvA.Options()
	res := &WarmRestartResult{
		Mode:      "warm-restart",
		Scale:     cfg.Scale.Name,
		Workload:  cfg.Workload.Name,
		Method:    run.Method,
		Shards:    run.Shards,
		Queries:   len(queries),
		Transport: srvA.Transport(),
		Seed:      cfg.Seed,
	}
	if run.Cache != nil {
		res.CacheCapacity = run.Cache.Capacity
	}

	// Phase 1: fill pass with interleaved churn.
	if progress != nil {
		progress("warm-restart: fill pass, %d queries", len(queries))
	}
	rng := randx.New(cfg.Seed + 7)
	churn := newChurnState(initial)
	var batches [][]changeplan.Op // every batch, replayed on the cold baseline
	applyChurn := func(srv *router.Server) error {
		ops, toggled := churn.batch(rng, cfg.OpsPerBatch)
		if len(ops) == 0 {
			return nil
		}
		out, err := srv.Update(ops)
		if err != nil {
			return err
		}
		for i, t := range toggled {
			if out.Ops[i].Err == nil {
				t.present = !t.present
			}
		}
		batches = append(batches, ops)
		res.UpdateBatches++
		return nil
	}
	for i, q := range queries {
		if _, err := srvA.SubgraphQuery(q); err != nil {
			return nil, err
		}
		if cfg.UpdateEvery > 0 && (i+1)%cfg.UpdateEvery == 0 {
			if err := applyChurn(srvA); err != nil {
				return nil, err
			}
		}
	}

	// Phase 2: snapshot, then the post-snapshot churn tail.
	if err := srvA.Snapshot(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.TailBatches; i++ {
		if err := applyChurn(srvA); err != nil {
			return nil, err
		}
	}

	// Phase 3: pre-restart measurement pass, then the crash.
	pre, err := measurePass(srvA, queries)
	if err != nil {
		return nil, err
	}
	res.PreRestartHitRate = pre.hitRate
	srvA.CloseAbrupt()
	srvAClosed = true

	// Phase 4: warm restart.
	t0 := time.Now()
	srvB, err := router.New(nil, persistOpts)
	if err != nil {
		return nil, err
	}
	defer srvB.Close()
	res.RecoveryMillis = float64(time.Since(t0).Microseconds()) / 1000
	res.RecoveredEntries, res.RecoveredEpoch, _ = srvB.Recovered()
	if progress != nil {
		progress("warm-restart: recovered %d entries at epoch %d in %.1fms",
			res.RecoveredEntries, res.RecoveredEpoch, res.RecoveryMillis)
	}
	full, err := awaitFullValidity(srvB, 60*time.Second)
	if err != nil {
		return nil, err
	}
	res.TimeToFullValidityMillis = float64(time.Since(t0).Microseconds()) / 1000
	res.FinalValidityRatio = full.ValidityRatio
	res.RepairedBits = full.RepairedBits
	res.WALBytes = full.WALBytes
	warm, err := measurePass(srvB, queries)
	if err != nil {
		return nil, err
	}
	res.WarmHitRate = warm.hitRate
	res.WarmAdmitted = warm.admitted
	res.WarmAnswersFNV = fmt.Sprintf("%016x", warm.digest)
	if res.PreRestartHitRate > 0 {
		res.WarmOverPre = res.WarmHitRate / res.PreRestartHitRate
	}

	// Phase 5: cold baseline — fresh server, same updates, same stream.
	if progress != nil {
		progress("warm-restart: cold baseline")
	}
	coldOpts := persistOpts
	coldOpts.DataDir = ""
	srvC, err := router.New(initial, coldOpts)
	if err != nil {
		return nil, err
	}
	defer srvC.Close()
	for _, ops := range batches {
		if _, err := srvC.Update(ops); err != nil {
			return nil, err
		}
	}
	cold, err := measurePass(srvC, queries)
	if err != nil {
		return nil, err
	}
	res.ColdHitRate = cold.hitRate
	res.ColdAnswersFNV = fmt.Sprintf("%016x", cold.digest)
	res.AnswersMatch = res.WarmAnswersFNV == res.ColdAnswersFNV
	return res, nil
}

// passStats summarizes one measurement pass over the query stream.
type passStats struct {
	hitRate  float64
	admitted int64
	digest   uint64
}

// measurePass runs the stream once and reports the pass's hit rate
// (mean per-shard zero-test rate over exactly these queries), the
// entries admitted during the pass, and the order-independent answer
// digest.
func measurePass(srv *router.Server, queries []*graph.Graph) (passStats, error) {
	before, err := srv.Stats()
	if err != nil {
		return passStats{}, err
	}
	var ps passStats
	for i, q := range queries {
		out, err := srv.SubgraphQuery(q)
		if err != nil {
			return passStats{}, err
		}
		ps.digest ^= answerHash(i, out.IDs)
	}
	after, err := srv.Stats()
	if err != nil {
		return passStats{}, err
	}
	var rates float64
	for i := range after.PerShard {
		a, b := &after.PerShard[i].Metrics, &before.PerShard[i].Metrics
		if dq := a.MeasuredQueries - b.MeasuredQueries; dq > 0 {
			rates += float64(a.ZeroTestQueries-b.ZeroTestQueries) / float64(dq)
		}
		// Admitted counts window *flushes*; add the window-length delta
		// so entries recomputed into a not-yet-flushed window are
		// counted too (otherwise "zero admissions" could hold vacuously
		// while up to WindowSize-1 entries per shard were recomputed).
		ca, cb := &after.PerShard[i].Cache, &before.PerShard[i].Cache
		ps.admitted += (ca.Admitted - cb.Admitted) + int64(ca.Window-cb.Window)
	}
	if len(after.PerShard) > 0 {
		ps.hitRate = rates / float64(len(after.PerShard))
	}
	return ps, nil
}

// awaitFullValidity polls until the background repair pipeline has
// drained — no pending pairs and a fully valid cache — or the timeout
// elapses (the state reached by then is reported, not an error: a
// lossy-but-live system is still a result).
func awaitFullValidity(srv *router.Server, timeout time.Duration) (*router.Stats, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := srv.Stats()
		if err != nil {
			return nil, err
		}
		if (st.PendingRepairs == 0 && st.ValidityRatio > 0.9999) || time.Now().After(deadline) {
			return st, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// WriteWarmRestartJSON emits the summary as indented JSON.
func WriteWarmRestartJSON(w io.Writer, res *WarmRestartResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
