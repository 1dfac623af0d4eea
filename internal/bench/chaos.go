package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gcplus/internal/changeplan"
	"gcplus/internal/faultfs"
	"gcplus/internal/persist"
	"gcplus/internal/randx"
	"gcplus/internal/router"
)

// The -chaos benchmark is the CI-facing slice of the fault-injection
// harness: a durable server runs a query stream with interleaved churn
// while internal/faultfs fails and tears WAL writes, fails snapshot
// fsyncs and renames, stalls shard jobs and skews the serving clock —
// then the server is killed abruptly and warm-restarted on the settled
// disk. A fault-free reference replica applies the same updates; the
// acceptance criterion is bit-identical answer digests, before the
// crash and after recovery plus re-application of the lost tail. The
// emitted JSON carries the full fault schedule so a failing CI run is
// replayable from the artifact alone.

// ChaosConfig sizes the chaos benchmark.
type ChaosConfig struct {
	// Options configures the system under test, its warm restart and
	// the fault-free reference replica (which runs without persistence).
	// Shards defaults to 2, SnapshotEvery to 3, the cache capacity to
	// the stream length (so recovered entries can serve the
	// post-restart pass) and the window to the Scale's. DataDir
	// defaults to a fresh temporary directory, removed when the run
	// ends.
	router.Options
	// Scale sizes the dataset (smoke/repro/paper).
	Scale Scale
	// Workload selects the query mix (default ZZ).
	Workload WorkloadSpec
	// Queries is the stream length (default Scale.Queries).
	Queries int
	// UpdateEvery interleaves one churn batch per this many queries
	// (default 10).
	UpdateEvery int
	// OpsPerBatch is the churn batch size (default 5).
	OpsPerBatch int
	// Seed drives dataset, workload, churn and the fault schedule.
	Seed int64
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Workload.Name == "" {
		c.Workload, _ = SpecByName("ZZ")
	}
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 3
	}
	if c.Queries <= 0 {
		c.Queries = c.Scale.Queries
	}
	if c.UpdateEvery <= 0 {
		c.UpdateEvery = 10
	}
	if c.OpsPerBatch <= 0 {
		c.OpsPerBatch = 5
	}
	c.Options = withCacheDefaults(c.Options, c.Queries, c.Scale.WindowSize)
	return c
}

// ChaosResult is the JSON summary the -chaos mode emits.
type ChaosResult struct {
	Mode          string `json:"mode"`
	Scale         string `json:"scale"`
	Workload      string `json:"workload"`
	Method        string `json:"method"`
	Shards        int    `json:"shards"`
	Queries       int    `json:"queries"`
	WALPolicy     string `json:"wal_policy"`
	Transport     string `json:"transport"`
	Seed          int64  `json:"seed"`
	UpdateBatches int    `json:"update_batches"`

	// Fault load actually delivered: total fired injections, split by
	// intercepted operation, and the WAL appends that saw them.
	FaultsInjected  int            `json:"faults_injected"`
	FaultsByOp      map[string]int `json:"faults_by_op"`
	WALAppendErrors int64          `json:"wal_append_errors"`

	// Pre-crash resilience state: how far the durable-epoch claim fell
	// behind the applied epoch, which shards latched volatile, and what
	// the overload machinery did while the storage misbehaved.
	FinalEpoch        uint64  `json:"final_epoch"`
	DurableEpoch      uint64  `json:"durable_epoch"`
	WALVolatileShards int     `json:"wal_volatile_shards"`
	ShedQueries       int64   `json:"shed_queries"`
	DeadlineExceeded  int64   `json:"deadline_exceeded"`
	DegradedSeconds   float64 `json:"degraded_seconds"`
	CleanReads        int64   `json:"clean_reads"`

	// Warm-restart outcome on the settled disk.
	RecoveryMillis   float64 `json:"recovery_ms"`
	RecoveredEntries int     `json:"recovered_entries"`
	RecoveredEpoch   uint64  `json:"recovered_epoch"`
	ReappliedBatches int     `json:"reapplied_batches"`

	// Digest equality against the fault-free reference replica — the
	// differential oracle. PreCrashMatch proves faults never corrupted
	// a served answer; AnswersMatch proves recovery converged.
	PreCrashAnswersFNV  string `json:"pre_crash_answers_fnv"`
	RecoveredAnswersFNV string `json:"recovered_answers_fnv"`
	ReferenceAnswersFNV string `json:"reference_answers_fnv"`
	PreCrashMatch       bool   `json:"pre_crash_match"`
	AnswersMatch        bool   `json:"answers_match"`

	// FaultSchedule is the injector's fired-event log, in order — the
	// replay recipe for a failing run.
	FaultSchedule []faultfs.Event `json:"fault_schedule"`
}

// RunChaos runs the chaos benchmark.
func RunChaos(cfg ChaosConfig, progress Progress) (*ChaosResult, error) {
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
		tmp, err := os.MkdirTemp("", "gcplus-chaos-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else if persist.HasState(dir) {
		return nil, fmt.Errorf("bench: data dir %s already holds state; the chaos benchmark needs a fresh directory", dir)
	}

	// The injector boots with no rules — the initial snapshot generation
	// must land or router.New fails — and is armed right after New.
	ffs := faultfs.New(persist.OSFS, cfg.Seed)

	// Clock skew (every 13th bookkeeping clock read steps 40ms back) and
	// shard stalls (every 31st job pauses) ride along: skew must only
	// distort duration metrics, stalls only back up the FIFO queues.
	var clockReads, jobCount atomic.Int64
	skewedNow := func() time.Time {
		if clockReads.Add(1)%13 == 0 {
			return time.Now().Add(-40 * time.Millisecond)
		}
		return time.Now()
	}
	stall := func(int) {
		if jobCount.Add(1)%31 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}

	opts := cfg.Options
	opts.DataDir = dir
	opts.Faults = &router.FaultInjection{FS: ffs, ShardStall: stall, Now: skewedNow}
	srvA, err := router.New(initial, opts)
	if err != nil {
		return nil, err
	}
	srvAClosed := false
	defer func() {
		if !srvAClosed {
			srvA.CloseAbrupt()
		}
	}()
	for _, r := range []faultfs.Rule{
		{ID: "wal-write-fail", Op: faultfs.OpWrite, Path: "wal-", Prob: 0.20},
		{ID: "wal-torn", Op: faultfs.OpWrite, Path: "wal-", Prob: 0.10, Torn: 7},
		{ID: "wal-sync-fail", Op: faultfs.OpSync, Path: "wal-", Prob: 0.10},
		{ID: "wal-latency", Op: faultfs.OpWrite, Path: "wal-", Prob: 0.10, Delay: 500 * time.Microsecond, DelayOnly: true},
		{ID: "snap-write-fail", Op: faultfs.OpWrite, Path: "snap-", Prob: 0.25},
		{ID: "snap-sync-fail", Op: faultfs.OpSync, Path: "snap-", Prob: 0.20},
		{ID: "snap-rename-fail", Op: faultfs.OpRename, Path: "snap-", Prob: 0.25},
	} {
		ffs.AddRule(r)
	}

	// Fault-free reference replica: same sharding and cache, no
	// persistence. The oracle every digest is compared against.
	refOpts := opts
	refOpts.DataDir = ""
	refOpts.SnapshotEvery = 0
	refOpts.WALPolicy = ""
	refOpts.Faults = nil
	ref, err := router.New(initial, refOpts)
	if err != nil {
		return nil, err
	}
	defer ref.Close()

	run := srvA.Options()
	res := &ChaosResult{
		Mode:      "chaos",
		Scale:     cfg.Scale.Name,
		Workload:  cfg.Workload.Name,
		Method:    run.Method,
		Shards:    run.Shards,
		Queries:   len(queries),
		WALPolicy: run.WALPolicy,
		Transport: srvA.Transport(),
		Seed:      cfg.Seed,
	}
	if progress != nil {
		progress("chaos: %d queries, policy %s, data dir %s", len(queries), run.WALPolicy, dir)
	}

	// Background readers keep concurrent query load on the chaotic
	// server for the whole soak. Queries never touch the failing
	// filesystem, so any error here is a real serving bug.
	var (
		readerMu   sync.Mutex
		readerErr  error
		stop       atomic.Bool
		cleanReads atomic.Int64
		readers    sync.WaitGroup
	)
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for j := r; !stop.Load(); j += 2 {
				if _, err := srvA.SubgraphQuery(queries[j%len(queries)]); err != nil {
					if router.IsOverload(err) {
						continue
					}
					readerMu.Lock()
					if readerErr == nil {
						readerErr = fmt.Errorf("chaos reader: %w", err)
					}
					readerMu.Unlock()
					return
				}
				cleanReads.Add(1)
			}
		}(r)
	}

	// The chaotic stream: queries with interleaved churn, the churn
	// mirrored onto the reference. Under fail-update an update error
	// that still carries a result is the durability report — the batch
	// IS applied in memory and the WAL gap is open; that is the chaos
	// under test, not a benchmark failure.
	rng := randx.New(cfg.Seed + 7)
	churn := newChurnState(initial)
	var batches [][]changeplan.Op
	applyChurn := func() error {
		ops, toggled := churn.batch(rng, cfg.OpsPerBatch)
		if len(ops) == 0 {
			return nil
		}
		out, err := srvA.Update(ops)
		if out == nil {
			return fmt.Errorf("chaos: update batch rejected outright: %w", err)
		}
		for i, t := range toggled {
			if out.Ops[i].Err == nil {
				t.present = !t.present
			}
		}
		if _, err := ref.Update(ops); err != nil {
			return err
		}
		batches = append(batches, ops)
		res.UpdateBatches++
		return nil
	}
	for i, q := range queries {
		if _, err := srvA.SubgraphQuery(q); err != nil {
			return nil, err
		}
		if (i+1)%cfg.UpdateEvery == 0 {
			if err := applyChurn(); err != nil {
				return nil, err
			}
		}
	}
	stop.Store(true)
	readers.Wait()
	if readerErr != nil {
		return nil, readerErr
	}
	res.CleanReads = cleanReads.Load()

	// Pre-crash differential: both replicas answer the full stream.
	pre, err := measurePass(srvA, queries)
	if err != nil {
		return nil, err
	}
	refPass, err := measurePass(ref, queries)
	if err != nil {
		return nil, err
	}
	res.PreCrashAnswersFNV = fmt.Sprintf("%016x", pre.digest)
	res.ReferenceAnswersFNV = fmt.Sprintf("%016x", refPass.digest)
	res.PreCrashMatch = res.PreCrashAnswersFNV == res.ReferenceAnswersFNV

	st, err := srvA.Stats()
	if err != nil {
		return nil, err
	}
	res.FinalEpoch = st.Epoch
	res.DurableEpoch = st.DurableEpoch
	res.WALVolatileShards = st.WALVolatileShards
	res.ShedQueries = st.ShedQueries
	res.DeadlineExceeded = st.DeadlineExceeded
	res.DegradedSeconds = st.DegradedSeconds
	res.WALAppendErrors = st.WALAppendErrors

	// Abrupt kill mid-chaos, then stop the injector: recovery runs on
	// the settled (healthy) disk, the crash-shaped state it left behind.
	srvA.CloseAbrupt()
	srvAClosed = true
	ffs.Stop()
	res.FaultSchedule = ffs.Events()
	res.FaultsInjected = len(res.FaultSchedule)
	res.FaultsByOp = make(map[string]int)
	for _, ev := range res.FaultSchedule {
		res.FaultsByOp[string(ev.Op)]++
	}
	if res.FaultsInjected == 0 {
		return nil, fmt.Errorf("chaos: schedule fired no faults — nothing was tested")
	}
	if progress != nil {
		progress("chaos: %d faults injected, epoch %d (durable %d), warm restarting",
			res.FaultsInjected, res.FinalEpoch, res.DurableEpoch)
	}

	// Warm restart, re-apply the lost tail (the client retry path), and
	// demand convergence with the reference.
	t0 := time.Now()
	srvB, err := router.New(nil, opts)
	if err != nil {
		return nil, fmt.Errorf("chaos: warm restart: %w", err)
	}
	defer srvB.Close()
	res.RecoveryMillis = float64(time.Since(t0).Microseconds()) / 1000
	var recEpoch uint64
	res.RecoveredEntries, recEpoch, _ = srvB.Recovered()
	res.RecoveredEpoch = recEpoch
	if recEpoch > uint64(len(batches)) {
		return nil, fmt.Errorf("chaos: recovered epoch %d beyond %d applied batches", recEpoch, len(batches))
	}
	for _, ops := range batches[recEpoch:] {
		if _, err := srvB.Update(ops); err != nil {
			return nil, fmt.Errorf("chaos: re-applying lost tail: %w", err)
		}
		res.ReappliedBatches++
	}
	if _, err := awaitFullValidity(srvB, 60*time.Second); err != nil {
		return nil, err
	}
	rec, err := measurePass(srvB, queries)
	if err != nil {
		return nil, err
	}
	res.RecoveredAnswersFNV = fmt.Sprintf("%016x", rec.digest)
	res.AnswersMatch = res.PreCrashMatch && res.RecoveredAnswersFNV == res.ReferenceAnswersFNV
	return res, nil
}

// WriteChaosJSON emits the summary as indented JSON.
func WriteChaosJSON(w io.Writer, res *ChaosResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
