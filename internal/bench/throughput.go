package bench

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gcplus/internal/cache"
	"gcplus/internal/changeplan"
	"gcplus/internal/graph"
	"gcplus/internal/obs"
	"gcplus/internal/randx"
	"gcplus/internal/router"
)

// ThroughputConfig sizes a concurrent-serving benchmark: C client
// goroutines drive queries against a sharded router.Server while a writer
// applies update batches at the paper's ops-per-query density, giving
// future PRs a queries/sec + latency-percentile trajectory to compare
// against.
type ThroughputConfig struct {
	// Options configures the server under test. A zero cache capacity
	// or window takes the Scale's; the large-capacity scenarios the
	// query index exists for run at 2000–10000.
	router.Options
	// Scale sizes dataset and workload (smoke/repro/paper).
	Scale Scale
	// Workload selects the query mix (default ZZ).
	Workload WorkloadSpec
	// Clients is the number of concurrent query goroutines (default 8).
	Clients int
	// Queries is the total number of queries issued across clients;
	// defaults to Scale.Queries. When it exceeds Scale.Queries the
	// workload is generated at the larger size, so every issued query
	// is distinct — the shape a large per-shard cache needs to actually
	// fill (repeating a short query list would collapse into isomorphic
	// refreshes after the first lap).
	Queries int
	// UpdateEvery applies one update batch of OpsPerBatch operations
	// after every UpdateEvery queries (0 disables updates).
	UpdateEvery int
	// OpsPerBatch is the batch size (default 5).
	OpsPerBatch int
	// UpdateKind selects the update stream: "add" (default) grows the
	// dataset with clones of initial graphs, like live ingest; "churn"
	// toggles edges of existing graphs (UA/UR), the update-heavy
	// scenario that invalidates cached validity bits and exercises the
	// background repair pipeline.
	UpdateKind string
	// BurstClients, when positive, turns on the flash-crowd mode: that
	// many extra query clients spin up once a third of the query budget
	// has been claimed and stop at two thirds — an N× load spike in the
	// middle of the run. Burst traffic repeats workload queries without
	// consuming the budget; its served count is reported separately and
	// excluded from QPS. Requests the admission controller sheds are
	// counted and dropped, never retried — the flash-crowd contract is
	// fast failure.
	BurstClients int
	// TraceOverhead measures the cost of tracing: the workload runs four
	// passes in counterbalanced order — untraced, fully-traced, fully-
	// traced, untraced — and the fractional delta between the two modes'
	// mean qps is reported. The ABBA order cancels the machine's
	// lifetime throughput drift out of the comparison. Every pass must
	// report the same answer digest — tracing can never change an
	// answer.
	TraceOverhead bool
	// Seed drives dataset, workload and update generation.
	Seed int64
}

func (c ThroughputConfig) withDefaults() ThroughputConfig {
	if c.Workload.Name == "" {
		c.Workload, _ = SpecByName("ZZ")
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Queries <= 0 {
		c.Queries = c.Scale.Queries
	}
	if c.OpsPerBatch <= 0 {
		c.OpsPerBatch = 5
	}
	if c.UpdateKind == "" {
		c.UpdateKind = UpdateKindAdd
	}
	return c
}

// withCacheDefaults returns o with a private copy of its cache config
// in which a zero capacity or window takes the benchmark's value.
func withCacheDefaults(o router.Options, capacity, window int) router.Options {
	if o.DisableCache {
		return o
	}
	var c cache.Config
	if o.Cache != nil {
		c = *o.Cache
	}
	if c.Capacity <= 0 {
		c.Capacity = capacity
	}
	if c.WindowSize <= 0 {
		c.WindowSize = window
	}
	o.Cache = &c
	return o
}

// critTransport returns the transport overhead on res's critical path:
// that of the shard whose queue wait, service and transport sum
// largest, the one the router's fan-out waited for.
func critTransport(res *router.QueryResult) time.Duration {
	var worst, crit time.Duration = -1, 0
	for i := range res.PerShard {
		st := &res.PerShard[i]
		if d := res.Queue[i] + st.QueryTime + st.Overhead + res.Transport[i]; d > worst {
			worst, crit = d, res.Transport[i]
		}
	}
	return crit
}

// shedBackoff is the pause a bench client takes after an admission
// shed before issuing its next (different) query — long enough that
// the shed counter tracks offered load rather than a busy-loop's spin
// rate, short enough to keep the flash crowd saturating.
const shedBackoff = 250 * time.Microsecond

// Update-stream kinds for ThroughputConfig.UpdateKind.
const (
	// UpdateKindAdd grows the dataset with ADDs (live-ingest shape).
	UpdateKindAdd = "add"
	// UpdateKindChurn toggles edges of existing graphs with UA/UR — the
	// update-heavy shape that decays cache validity.
	UpdateKindChurn = "churn"
)

// ThroughputResult is the JSON summary the -throughput mode emits.
type ThroughputResult struct {
	Scale         string  `json:"scale"`
	Workload      string  `json:"workload"`
	Method        string  `json:"method"`
	Shards        int     `json:"shards"`
	Clients       int     `json:"clients"`
	UpdateKind    string  `json:"update_kind"`
	EagerValidate bool    `json:"eager_validate"`
	DisableCache  bool    `json:"disable_cache"`
	VerifyPar     int     `json:"verify_parallelism"`
	RepairPar     int     `json:"repair_parallelism"`
	CacheCapacity int     `json:"cache_capacity"`
	HitIndex      bool    `json:"hit_index"`
	Planner       bool    `json:"planner"`
	Transport     string  `json:"transport"`
	Seed          int64   `json:"seed"`
	Queries       int     `json:"queries"`
	UpdateBatches int     `json:"update_batches"`
	OpsApplied    int     `json:"ops_applied"`
	Epoch         uint64  `json:"epoch"`
	WallSeconds   float64 `json:"wall_seconds"`
	QPS           float64 `json:"qps"`
	P50Millis     float64 `json:"p50_ms"`
	P95Millis     float64 `json:"p95_ms"`
	P99Millis     float64 `json:"p99_ms"`
	MeanMillis    float64 `json:"mean_ms"`
	// Transport overhead, microseconds: the router-observed round trip
	// minus the host-measured service time. Call figures cover every
	// shard call; critical-path figures take, per query, the transport
	// of the shard the fan-out waited for (largest queue + service +
	// transport), so they stay within the query's wall time. Near zero
	// over the local transport; framing + TCP + scheduling over
	// loopback.
	TransportCallMeanMicros float64 `json:"transport_call_mean_us"`
	TransportCallP50Micros  float64 `json:"transport_call_p50_us"`
	TransportCallP99Micros  float64 `json:"transport_call_p99_us"`
	TransportCritMeanMicros float64 `json:"transport_crit_mean_us"`
	TransportCritP50Micros  float64 `json:"transport_crit_p50_us"`
	TransportCritP99Micros  float64 `json:"transport_crit_p99_us"`
	SubIsoTests             float64 `json:"subiso_tests_per_query"`
	HitRate                 float64 `json:"hit_rate"`
	LiveGraphs              int     `json:"live_graphs"`
	// HitMsMean is the mean hit-discovery time per front-end query,
	// summed across shards (milliseconds) — the series the query index
	// drives down as capacity grows.
	HitMsMean float64 `json:"hit_ms_mean"`
	// HitCandidates and HitScanned are the per-front-end-query mean
	// number of entries hit discovery examined vs the cache+window size
	// it faced; their ratio is the index's realized selectivity (1.0
	// when the index is off, up to kind filtering).
	HitCandidates float64 `json:"hit_candidates_per_query"`
	HitScanned    float64 `json:"hit_scanned_per_query"`
	// QPSTraced and TraceOverhead are the tracing-overhead pair,
	// populated only by a TraceOverhead run: the mean fully-sampled qps
	// across the two traced passes and the fractional qps lost to
	// tracing, (untraced − traced) / untraced over the two modes' mean
	// rates. Small negative values are run-to-run noise, not a speedup.
	QPSTraced     float64 `json:"qps_traced,omitempty"`
	TraceOverhead float64 `json:"trace_overhead,omitempty"`
	// AnswersFNV is an order-independent FNV-1a digest over every
	// (query index, answer ids) pair. Two runs on the same seed and
	// workload with updates disabled must report the same digest —
	// the bit-identical-answers check for index-on vs index-off runs.
	AnswersFNV string `json:"answers_fnv"`
	// PlanCacheHits and PlanCacheMisses summarize the compiled-plan
	// cache across shards (both zero with the planner off): hits are the
	// queries whose compilation and planning were skipped entirely.
	PlanCacheHits   int64 `json:"plan_cache_hits,omitempty"`
	PlanCacheMisses int64 `json:"plan_cache_misses,omitempty"`
	// ValidityRatio is the final mean per-shard cache validity ratio —
	// the health metric background repair recovers under churn.
	ValidityRatio float64 `json:"validity_ratio"`
	// RepairedBits and PendingRepairs summarize the repair pipeline at
	// the end of the run.
	RepairedBits   int64 `json:"repaired_bits"`
	PendingRepairs int   `json:"pending_repairs"`
	// Flash-crowd (-burst) summary, populated when BurstClients > 0.
	// ShedQueries counts admission sheds (the 429 path: fast-failed,
	// never executed); ShedRate divides by every attempt, budgeted or
	// burst. The split p99s bracket the spike — during-burst degradation
	// and after-burst recovery are the two numbers the overload story is
	// judged on. DegradedSeconds is the wall time the pressure
	// controller spent above rung 0.
	BurstClients    int     `json:"burst_clients,omitempty"`
	BurstServed     int64   `json:"burst_served,omitempty"`
	ShedQueries     int64   `json:"shed_queries,omitempty"`
	ShedRate        float64 `json:"shed_rate,omitempty"`
	DegradedSeconds float64 `json:"degraded_seconds,omitempty"`
	P99BeforeBurst  float64 `json:"p99_before_burst_ms,omitempty"`
	P99DuringBurst  float64 `json:"p99_during_burst_ms,omitempty"`
	P99AfterBurst   float64 `json:"p99_after_burst_ms,omitempty"`
}

// RunThroughput drives a sharded server with concurrent clients and a
// serialized update stream, and summarizes throughput and latency.
// With cfg.TraceOverhead it runs the workload twice — tracing off,
// then every request traced — and annotates the base summary with the
// qps delta.
func RunThroughput(cfg ThroughputConfig, progress Progress) (*ThroughputResult, error) {
	cfg = cfg.withDefaults()
	res, err := runThroughputOnce(cfg, progress)
	if err != nil || !cfg.TraceOverhead {
		return res, err
	}
	// Tracing overhead is a small signal under machine-level noise:
	// shared CPUs swing run-to-run qps by ±10%, and throughput commonly
	// drifts downward over a process's lifetime (burst credits, thermal
	// and frequency scaling), so any design that always runs the traced
	// pass after the untraced one biases the delta against tracing. The
	// counterbalanced ABBA order — untraced, traced, traced, untraced —
	// puts both modes at the same mean position in time, so linear drift
	// cancels out of the mean-vs-mean delta.
	traced := cfg
	traced.TraceOverhead = false
	traced.TraceSampleRate = 1
	sumU, sumT := res.QPS, 0.0
	rerun := func(c ThroughputConfig, label string) (float64, error) {
		if progress != nil {
			progress("trace overhead: " + label)
		}
		r, err := runThroughputOnce(c, progress)
		if err != nil {
			return 0, err
		}
		if r.AnswersFNV != res.AnswersFNV {
			return 0, fmt.Errorf("bench: %s answers diverge: %s vs %s (tracing can never change an answer)",
				label, res.AnswersFNV, r.AnswersFNV)
		}
		return r.QPS, nil
	}
	for i := 0; i < 2; i++ {
		q, err := rerun(traced, fmt.Sprintf("traced pass %d/2 (every request sampled)", i+1))
		if err != nil {
			return nil, err
		}
		sumT += q
	}
	q, err := rerun(cfg, "untraced pass 2/2")
	if err != nil {
		return nil, err
	}
	sumU += q
	res.QPSTraced = sumT / 2
	res.TraceOverhead = (sumU - sumT) / sumU
	return res, nil
}

func runThroughputOnce(cfg ThroughputConfig, progress Progress) (*ThroughputResult, error) {
	initial, err := generateDataset(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// Size the workload to the issued query count so large-capacity runs
	// see distinct queries throughout (see ThroughputConfig.Queries).
	wlScale := cfg.Scale
	if cfg.Queries > wlScale.Queries {
		wlScale.Queries = cfg.Queries
	}
	wl, err := memoizedWorkload(cfg.Workload, initial, wlScale, cfg.Seed+1)
	if err != nil {
		return nil, err
	}

	if cfg.UpdateKind != UpdateKindAdd && cfg.UpdateKind != UpdateKindChurn {
		return nil, fmt.Errorf("bench: unknown update kind %q (want %q or %q)",
			cfg.UpdateKind, UpdateKindAdd, UpdateKindChurn)
	}

	srv, err := router.New(initial, withCacheDefaults(cfg.Options, cfg.Scale.CacheCapacity, cfg.Scale.WindowSize))
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	if progress != nil {
		progress("throughput: %d queries, %d clients, %d shards", cfg.Queries, cfg.Clients, srv.Shards())
	}

	// One shared latency histogram across clients: lock-free atomic
	// recording, and the *same* bucketing/percentile code path the
	// serving layer's /metrics exposes — a p99 in a BENCH_*.json and a
	// p99 on a dashboard can never disagree about method.
	hist := obs.NewHistogram()
	// Transport overhead per shard call and on each query's critical
	// path, recorded only for the budgeted stream so local vs loopback
	// runs compare like for like.
	callHist, critHist := obs.NewHistogram(), obs.NewHistogram()
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		ansDigest uint64 // XOR of per-query answer hashes; guarded by mu
		firstErr  error
		next      int // next query index to claim; guarded by mu
	)

	// Flash-crowd instrumentation: a phase index (0 before, 1 during,
	// 2 after the spike) selects which histogram records each latency,
	// so the spike's p99 is separable from the calm on either side. The
	// transitions ride the claim counter — deterministic in the query
	// stream, not in wall time.
	burst := cfg.BurstClients > 0
	var (
		phase       atomic.Int32
		shed        atomic.Int64
		burstServed atomic.Int64
		startBurst  sync.Once
		stopBurst   sync.Once
	)
	phaseHists := [3]*obs.Histogram{obs.NewHistogram(), obs.NewHistogram(), obs.NewHistogram()}
	burstStart := make(chan struct{})
	burstStop := make(chan struct{})
	burstLo, burstHi := cfg.Queries/3, 2*cfg.Queries/3

	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= cfg.Queries || firstErr != nil {
			return -1
		}
		i := next
		next++
		if burst {
			if i == burstLo {
				phase.Store(1)
				startBurst.Do(func() { close(burstStart) })
			}
			if i == burstHi {
				phase.Store(2)
				stopBurst.Do(func() { close(burstStop) })
			}
		}
		return i
	}
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	// The writer applies one batch after every UpdateEvery queries have
	// been *issued*; it samples progress rather than synchronizing with
	// the clients, matching a live system's decoupled update stream.
	updates := make(chan struct{}, 1)
	var updateBatches, opsApplied int
	var writerWG sync.WaitGroup
	if cfg.UpdateEvery > 0 {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			rng := randx.New(cfg.Seed + 7)
			churn := newChurnState(initial)
			for range updates {
				var ops []changeplan.Op
				var toggled []*toggleEdge
				if cfg.UpdateKind == UpdateKindChurn {
					ops, toggled = churn.batch(rng, cfg.OpsPerBatch)
				} else {
					ops = make([]changeplan.Op, 0, cfg.OpsPerBatch)
					for len(ops) < cfg.OpsPerBatch {
						// ADD stream: target resolution against the
						// sharded server is the front-end's job, and ADD
						// keeps the dataset growing like live ingest.
						ops = append(ops, changeplan.AddOp(initial[rng.Intn(len(initial))].Clone()))
					}
				}
				res, err := srv.Update(ops)
				if err != nil {
					fail(err)
					return
				}
				for i, t := range toggled {
					if res.Ops[i].Err == nil {
						t.present = !t.present
					}
				}
				updateBatches++
				opsApplied += res.Applied
			}
		}()
	}

	// Burst clients: pure extra load, gated on the stream position. They
	// repeat workload queries without claiming budget indices, so the
	// budgeted stream's digest and QPS stay comparable across runs.
	var burstWG sync.WaitGroup
	if burst {
		burstWG.Add(cfg.BurstClients)
		for b := 0; b < cfg.BurstClients; b++ {
			go func(b int) {
				defer burstWG.Done()
				select {
				case <-burstStart:
				case <-burstStop:
					return
				}
				for j := b; ; j += cfg.BurstClients {
					select {
					case <-burstStop:
						return
					default:
					}
					q := wl.Queries[j%len(wl.Queries)]
					t0 := time.Now()
					if _, err := srv.SubgraphQuery(q); err != nil {
						if router.IsOverload(err) {
							shed.Add(1)
							// Brief pause, no retry of this query: sheds
							// should track offered load, not the spin rate
							// of a rejection busy-loop.
							time.Sleep(shedBackoff)
							continue
						}
						fail(err)
						return
					}
					phaseHists[phase.Load()].Observe(time.Since(t0))
					burstServed.Add(1)
				}
			}(b)
		}
	}

	start := time.Now()
	wg.Add(cfg.Clients)
	for c := 0; c < cfg.Clients; c++ {
		go func() {
			defer wg.Done()
			var digest uint64
			for {
				i := claim()
				if i < 0 {
					break
				}
				q := wl.Queries[i%len(wl.Queries)]
				t0 := time.Now()
				res, err := srv.SubgraphQuery(q)
				switch {
				case err != nil && router.IsOverload(err):
					// Admission shed: count it and move on. The query's
					// answer hash is skipped, so a run that sheds reports
					// a different digest than one that does not — digest
					// comparisons only hold between shed-free runs.
					shed.Add(1)
					time.Sleep(shedBackoff)
				case err != nil:
					fail(err)
				default:
					d := time.Since(t0)
					hist.Observe(d)
					for _, td := range res.Transport {
						callHist.Observe(td)
					}
					critHist.Observe(critTransport(res))
					if burst {
						phaseHists[phase.Load()].Observe(d)
					}
					digest ^= answerHash(i, res.IDs)
				}
				if err != nil && !router.IsOverload(err) {
					break
				}
				if cfg.UpdateEvery > 0 && (i+1)%cfg.UpdateEvery == 0 {
					select {
					case updates <- struct{}{}:
					default: // writer busy; skip rather than queue up
					}
				}
			}
			mu.Lock()
			ansDigest ^= digest
			mu.Unlock()
		}()
	}
	wg.Wait()
	if burst {
		// The budget may drain before the 2/3 mark is claimed (an error
		// aborts the run early); make the stop edge unconditional.
		stopBurst.Do(func() { close(burstStop) })
		burstWG.Wait()
	}
	close(updates)
	writerWG.Wait()
	wall := time.Since(start)

	if firstErr != nil {
		return nil, firstErr
	}

	st, err := srv.Stats()
	if err != nil {
		return nil, err
	}
	// Total Method M tests, hit-discovery time and hit-discovery work
	// across shards, per front-end query.
	var totalTests, totalHitSec, totalHitCands, totalHitScanned float64
	for _, ss := range st.PerShard {
		totalTests += ss.Metrics.SubIsoTests.Mean * float64(ss.Metrics.SubIsoTests.N)
		totalHitSec += ss.Metrics.HitTimeSec.Mean * float64(ss.Metrics.HitTimeSec.N)
		totalHitCands += ss.Metrics.HitCandidates.Mean * float64(ss.Metrics.HitCandidates.N)
		totalHitScanned += ss.Metrics.HitScanned.Mean * float64(ss.Metrics.HitScanned.N)
	}
	// Record the resolved settings, not the raw config: the auto
	// defaults (0) are machine-dependent, and trajectory entries must
	// say what actually ran.
	run := srv.Options()
	res := &ThroughputResult{
		Scale:                   cfg.Scale.Name,
		Workload:                cfg.Workload.Name,
		Method:                  run.Method,
		Shards:                  run.Shards,
		Clients:                 cfg.Clients,
		UpdateKind:              cfg.UpdateKind,
		EagerValidate:           run.EagerValidate,
		DisableCache:            run.DisableCache,
		VerifyPar:               run.VerifyParallelism,
		RepairPar:               run.RepairParallelism,
		Planner:                 run.EnablePlanner,
		Transport:               srv.Transport(),
		Seed:                    cfg.Seed,
		Queries:                 int(hist.Count()),
		UpdateBatches:           updateBatches,
		OpsApplied:              opsApplied,
		Epoch:                   st.Epoch,
		WallSeconds:             wall.Seconds(),
		P50Millis:               hist.Quantile(0.50) * 1000,
		P95Millis:               hist.Quantile(0.95) * 1000,
		P99Millis:               hist.Quantile(0.99) * 1000,
		MeanMillis:              hist.MeanSeconds() * 1000,
		TransportCallMeanMicros: callHist.MeanSeconds() * 1e6,
		TransportCallP50Micros:  callHist.Quantile(0.50) * 1e6,
		TransportCallP99Micros:  callHist.Quantile(0.99) * 1e6,
		TransportCritMeanMicros: critHist.MeanSeconds() * 1e6,
		TransportCritP50Micros:  critHist.Quantile(0.50) * 1e6,
		TransportCritP99Micros:  critHist.Quantile(0.99) * 1e6,
		HitRate:                 st.HitRate,
		LiveGraphs:              st.LiveGraphs,
		ValidityRatio:           st.ValidityRatio,
		RepairedBits:            st.RepairedBits,
		PendingRepairs:          st.PendingRepairs,

		PlanCacheHits:   st.PlanCacheHits,
		PlanCacheMisses: st.PlanCacheMisses,
	}
	if run.Cache != nil {
		res.CacheCapacity = run.Cache.Capacity
		res.HitIndex = !run.Cache.DisableHitIndex
	}
	if wall > 0 {
		res.QPS = float64(res.Queries) / wall.Seconds()
	}
	if res.Queries > 0 {
		n := float64(res.Queries)
		res.SubIsoTests = totalTests / n
		res.HitMsMean = totalHitSec / n * 1000
		res.HitCandidates = totalHitCands / n
		res.HitScanned = totalHitScanned / n
	}
	res.ShedQueries = shed.Load()
	res.DegradedSeconds = st.DegradedSeconds
	if burst {
		res.BurstClients = cfg.BurstClients
		res.BurstServed = burstServed.Load()
		if attempts := float64(res.Queries) + float64(res.BurstServed+res.ShedQueries); attempts > 0 {
			res.ShedRate = float64(res.ShedQueries) / attempts
		}
		res.P99BeforeBurst = phaseHists[0].Quantile(0.99) * 1000
		res.P99DuringBurst = phaseHists[1].Quantile(0.99) * 1000
		res.P99AfterBurst = phaseHists[2].Quantile(0.99) * 1000
	}
	res.AnswersFNV = fmt.Sprintf("%016x", ansDigest)
	return res, nil
}

// answerHash digests one query's answer: FNV-1a over the query's index
// in the stream and its (already sorted) global answer ids. Per-query
// hashes are XORed together so the digest is independent of client
// interleaving.
func answerHash(queryIdx int, ids []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(queryIdx))
	for _, id := range ids {
		put(uint64(id))
	}
	return h.Sum64()
}

// toggleEdge is the writer's belief about one tracked edge of an
// initial graph. The benchmark's writer is the only mutator of the
// served dataset, so flipping the belief on each acknowledged op keeps
// it exact and every generated UA/UR applicable.
type toggleEdge struct {
	u, v    int
	present bool
}

// churnState picks, per dataset graph, one edge to toggle with
// alternating UA/UR ops — a sustained update-heavy stream over existing
// graphs that clears cached validity bits without ever failing an op.
type churnState struct {
	initial []*graph.Graph
	edges   map[int]*toggleEdge
}

func newChurnState(initial []*graph.Graph) *churnState {
	return &churnState{initial: initial, edges: make(map[int]*toggleEdge)}
}

// batch draws up to n ops on distinct graphs (distinct so each touched
// graph sees a UA- or UR-exclusive batch, exercising Algorithm 2's
// survival rules rather than only the mixed-ops clear). It returns the
// ops plus the toggle each op came from, index-aligned, so the caller
// can flip beliefs for acknowledged ops.
func (cs *churnState) batch(rng *rand.Rand, n int) ([]changeplan.Op, []*toggleEdge) {
	ops := make([]changeplan.Op, 0, n)
	toggled := make([]*toggleEdge, 0, n)
	used := make(map[int]bool, n)
	for tries := 0; len(ops) < n && tries < 8*n; tries++ {
		id := rng.Intn(len(cs.initial))
		if used[id] {
			continue
		}
		t := cs.toggleFor(rng, id)
		if t == nil {
			continue
		}
		used[id] = true
		if t.present {
			ops = append(ops, changeplan.RemoveEdgeOp(id, t.u, t.v))
		} else {
			ops = append(ops, changeplan.AddEdgeOp(id, t.u, t.v))
		}
		toggled = append(toggled, t)
	}
	return ops, toggled
}

// toggleFor returns graph id's tracked edge, choosing one on first use:
// preferably an absent vertex pair (so the first op is a UA), falling
// back to an existing edge, or nil for graphs too small to toggle.
func (cs *churnState) toggleFor(rng *rand.Rand, id int) *toggleEdge {
	if t, ok := cs.edges[id]; ok {
		return t
	}
	g := cs.initial[id]
	n := g.NumVertices()
	var t *toggleEdge
	for tries := 0; t == nil && n >= 2 && tries < 32; tries++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			t = &toggleEdge{u: u, v: v}
		}
	}
	if t == nil && g.NumEdges() > 0 {
		e := g.EdgeList()[rng.Intn(g.NumEdges())]
		t = &toggleEdge{u: int(e.U), v: int(e.V), present: true}
	}
	if t != nil {
		cs.edges[id] = t
	}
	return t
}

// WriteThroughputJSON emits the summary as indented JSON.
func WriteThroughputJSON(w io.Writer, res *ThroughputResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
