package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"gcplus/internal/bench"
	"gcplus/internal/router"
)

const (
	// setupReps is how many times set-up is measured; the median is
	// reported and the last server is the one driven.
	setupReps = 9
	// warmup is how long the workload runs, unrecorded, before timing.
	warmup = 2 * time.Second
)

// config is one invocation.
type config struct {
	w    workload
	seed int64
	dur  time.Duration
	out  string
	// dirs numbers the data dirs of this process.
	dirs int
}

func newConfig(w workload, seed int64, seconds int, out string) *config {
	return &config{w: w, seed: seed, dur: time.Duration(seconds) * time.Second, out: out}
}

// inputs generates the invocation's inputs at the repro scale.
func (c *config) inputs() (*inputs, error) {
	sc := bench.ScaleRepro()
	sc.Queries = streamLen
	return generate(c.w, sc, c.seed, c.batches())
}

// batches is the length of the update stream: enough for the churn
// writer to run the whole timed phase, or the read-only probe.
func (c *config) batches() int {
	if c.w.batchRate > 0 {
		return int(c.w.batchRate*c.dur.Seconds()) + 1
	}
	return probeBatches
}

// server is a built router.Server plus the data dir it owns.
type server struct {
	*router.Server
	dir string
}

// newServer builds a server over a fresh copy of the dataset and
// returns it with the time router.New took (boot snapshot included).
func (c *config) newServer(in *inputs) (*server, time.Duration, error) {
	graphs := cloneGraphs(in.initial)
	c.dirs++
	dir := filepath.Join(c.out, fmt.Sprintf("data-%d-%d", os.Getpid(), c.dirs))
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	srv, err := router.New(graphs, c.w.options(dir))
	took := time.Since(start)
	if err != nil {
		return nil, 0, fmt.Errorf("router.New: %w", err)
	}
	return &server{Server: srv, dir: dir}, took, nil
}

func (s *server) close() error {
	err := s.Close()
	if rmErr := os.RemoveAll(s.dir); err == nil {
		err = rmErr
	}
	return err
}

// phase is one timed run of a workload against one server.
type phase struct {
	elapsed   time.Duration
	queries   []queryRec
	updates   []timing
	applied   []appliedBatch
	count     counters
	spans     []span
	attribErr error

	before, after       *router.Stats
	walBefore, walAfter histogram
	mallocs             uint64
	cpuBefore, cpuAfter cpuSample
	// heap is the live heap after the timed phase, less the records.
	heap int64
}

const walHist = "gcplus_wal_append_duration_seconds"

// runPhase warms srv up, then drives the workload for c.dur.
func (c *config) runPhase(srv *server, in *inputs, traced bool) (*phase, error) {
	next, err := c.warm(srv, in)
	if err != nil {
		return nil, err
	}
	p := &phase{}
	if p.before, err = srv.Stats(); err != nil {
		return nil, err
	}
	if c.w.persist {
		if p.walBefore, err = scrapeHistogram(srv.Server, walHist); err != nil {
			return nil, err
		}
	}
	// Every phase starts from a collected heap, so that when collections
	// fall does not depend on what ran before.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p.cpuBefore = readCPU()

	t0 := time.Now()
	mk := func() *client { return &client{srv: srv.Server, in: in, t0: t0, traced: traced} }
	var cs []*client
	if c.w.clients > 0 {
		var pos atomic.Int64
		pos.Store(int64(next))
		cs = closedLoop(mk, c.w.clients, &pos, until(t0.Add(c.dur)))
	} else {
		cs = openLoop(mk, c.w.queryRate, c.w.batchRate, next, t0.Add(c.dur))
	}
	p.elapsed = time.Since(t0)

	p.cpuAfter = readCPU()
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	if p.after, err = srv.Stats(); err != nil {
		return nil, err
	}
	if c.w.persist {
		if p.walAfter, err = scrapeHistogram(srv.Server, walHist); err != nil {
			return nil, err
		}
	}
	for _, cl := range cs {
		p.queries = append(p.queries, cl.queries...)
		p.updates = append(p.updates, cl.updates...)
		p.applied = append(p.applied, cl.applied...)
		p.spans = append(p.spans, cl.spans...)
		p.count.merge(&cl.count)
		if p.attribErr == nil {
			p.attribErr = cl.attribErr
		}
	}
	// The benchmark's own per-request records grow with throughput;
	// they do not count as the server's heap.
	own := uintptr(cap(p.queries))*unsafe.Sizeof(queryRec{}) +
		uintptr(cap(p.updates))*unsafe.Sizeof(timing{}) +
		uintptr(cap(p.spans))*unsafe.Sizeof(span{})
	p.heap = liveHeap() - int64(own)
	return p, nil
}

// liveHeap is the heap in use after a full collection.
func liveHeap() int64 {
	var m runtime.MemStats
	// The second collection frees what sync.Pools kept from the first.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// warm fills the caches before timing: every distinct pattern of a pool
// stream once, then warmup of the workload's own traffic without the
// writer. It returns the stream position timing starts from.
func (c *config) warm(srv *server, in *inputs) (int, error) {
	if c.w.pool {
		seen := make(map[int]bool)
		for i, p := range in.pattern {
			if !seen[p] {
				seen[p] = true
				if _, err := srv.SubgraphQuery(in.queries[i]); err != nil {
					return 0, fmt.Errorf("warm-up: %w", err)
				}
			}
		}
	}
	mk := func() *client { return &client{srv: srv.Server, in: in, t0: time.Now()} }
	stop := time.Now().Add(warmup)
	if c.w.clients > 0 {
		var pos atomic.Int64
		closedLoop(mk, c.w.clients, &pos, until(stop))
		return int(pos.Load()), nil
	}
	return len(openLoop(mk, c.w.queryRate, 0, 0, stop)[0].queries), nil
}

// probe measures update latency on a read-only workload, after its
// timed phase and against its warm cache: one writer applies the update
// stream closed loop. Meanwhile one goroutine per processor yields in a
// loop, so that no processor goes idle: otherwise every hand-off between
// the writer and a shard owner would wait for an idle processor to wake
// up, which on a virtual machine takes long and varies from run to run.
// A yielding goroutine runs only when nothing else is runnable.
func probe(srv *server, in *inputs) []timing {
	runtime.GC()
	var done atomic.Bool
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				runtime.Gosched()
			}
		}()
	}
	c := &client{srv: srv.Server, in: in, t0: time.Now()}
	for k := range in.batches {
		c.update(k, time.Now())
	}
	done.Store(true)
	wg.Wait()
	return c.updates
}

// updateTimings returns the update latencies a run reports and the time
// they span: the churn writer's, or for a read-only workload those of a
// probe on srv after phase p.
func (c *config) updateTimings(srv *server, in *inputs, p *phase) ([]timing, time.Duration) {
	if c.w.batchRate > 0 {
		return p.updates, p.elapsed
	}
	u := probe(srv, in)
	last := u[len(u)-1]
	return u, last.at + last.lat
}

func queryTimings(qs []queryRec) []timing {
	out := make([]timing, len(qs))
	for i := range qs {
		out[i] = qs[i].timing
	}
	return out
}

func failures(ts ...[]timing) int {
	n := 0
	for _, t := range ts {
		for _, r := range t {
			if r.failed {
				n++
			}
		}
	}
	return n
}

// verify runs the oracle over p's sampled answers and the attribution
// check over its queries, reporting failures on stderr.
func (c *config) verify(in *inputs, p *phase) (checked int, ok bool) {
	checked, err := checkAnswers(in, p.applied, sampleAnswers(c.w, p.queries))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return checked, false
	}
	if p.attribErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", p.attribErr)
		return checked, false
	}
	return checked, true
}

// runEndToEnd measures set-up setupReps times, drives the last server
// untraced, and reports the end-to-end metrics.
func runEndToEnd(c *config) (*result, error) {
	in, err := c.inputs()
	if err != nil {
		return nil, err
	}
	// The server's heap is what the live heap grew by from here: the
	// generated inputs are the benchmark's.
	base := liveHeap()
	var srv *server
	setups := make([]time.Duration, setupReps)
	for i := range setups {
		if srv != nil {
			if err := srv.close(); err != nil {
				return nil, err
			}
		}
		if srv, setups[i], err = c.newServer(in); err != nil {
			return nil, err
		}
	}
	p, err := c.runPhase(srv, in, false)
	if err != nil {
		srv.close()
		return nil, err
	}
	updates, uElapsed := c.updateTimings(srv, in, p)
	if err := srv.close(); err != nil {
		return nil, err
	}
	checked, ok := c.verify(in, p)
	qt := queryTimings(p.queries)
	attempted := len(p.queries) + len(updates)
	failed := failures(qt, updates)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d queries (%d checked), %d updates, %d failed, %v timed\n",
		c.w.name, c.seed, len(p.queries), checked, len(updates), failed, p.elapsed.Round(time.Millisecond))
	slices.Sort(setups)
	return &result{
		Correct: ok, Attempted: attempted, Failed: failed,
		Metrics: map[string]metric{
			"query_qps":     {windowRate(qt, p.elapsed), "1/s"},
			"query_p50_ms":  {ms(windowQuantile(qt, p.elapsed, 0.50)), "ms"},
			"update_p50_ms": {ms(windowQuantile(updates, uElapsed, 0.50)), "ms"},
			"answered_frac": {1 - ratio(float64(failed), float64(attempted)), "ratio"},
			"setup_s":       {setups[len(setups)/2].Seconds(), "s"},
			"heap_mb":       {float64(p.heap-base) / (1 << 20), "MiB"},
		},
	}, nil
}

// runLayers drives the workload twice on fresh servers, untraced and
// then traced, and reports the per-layer metrics: self times and
// critical-path times from the traced run's spans, counters from the
// untraced run, and the difference between the two as trace overhead.
func runLayers(c *config) (*result, error) {
	in, err := c.inputs()
	if err != nil {
		return nil, err
	}
	var ph [2]*phase
	var updates []timing
	var uElapsed time.Duration
	for i := range ph {
		srv, _, err := c.newServer(in)
		if err != nil {
			return nil, err
		}
		ph[i], err = c.runPhase(srv, in, i == 1)
		if err == nil && i == 0 {
			updates, uElapsed = c.updateTimings(srv, in, ph[0])
		}
		if cerr := srv.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
	}
	plain, traced := ph[0], ph[1]
	checked, ok := 0, true
	for _, p := range ph {
		n, pok := c.verify(in, p)
		checked += n
		ok = ok && pok
	}
	spanFile := filepath.Join(c.out, "spans-"+c.w.name+".tsv")
	if err := writeSpans(spanFile, traced.spans); err != nil {
		return nil, err
	}
	attempted := len(plain.queries) + len(updates) + len(traced.queries) + len(traced.updates)
	failed := failures(queryTimings(plain.queries), updates, queryTimings(traced.queries), traced.updates)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d+%d queries (%d checked), %d spans in %s\n",
		c.w.name, c.seed, len(plain.queries), len(traced.queries), checked, len(traced.spans), spanFile)
	m := layerMetrics(plain, traced)
	m["router.query_p99_ms"] = metric{ms(windowQuantile(queryTimings(plain.queries), plain.elapsed, 0.99)), "ms"}
	m["router.update_p99_ms"] = metric{ms(windowQuantile(updates, uElapsed, 0.99)), "ms"}
	m["bench.update_samples"] = metric{float64(len(updates)), "count"}
	m["bench.answers_checked"] = metric{float64(checked), "count"}
	m["bench.failed_frac"] = metric{ratio(float64(failed), float64(attempted)), "ratio"}
	return &result{Correct: ok, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// layerMetrics computes the per-layer metrics of PREDICTIONS.md.
func layerMetrics(plain, traced *phase) map[string]metric {
	m := make(map[string]metric)
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Critical path, from the traced run's spans.
	self := map[string][]time.Duration{}
	dur := map[string][]time.Duration{}
	selfTimes(traced.spans, func(s *span, d time.Duration) {
		self[s.Name] = append(self[s.Name], d)
		dur[s.Name] = append(dur[s.Name], time.Duration(s.End-s.Start))
	})
	mean := func(ds []time.Duration) float64 {
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		return us(sum) / float64(max(len(ds), 1))
	}
	put("router.self_us_p50", us(quantile(self["router.query"], 0.50)), "us")
	put("router.self_us_p99", us(quantile(self["router.query"], 0.99)), "us")
	put("router.update_self_us_p50", us(quantile(self["router.update"], 0.50)), "us")
	put("transport.crit_us_p50", us(quantile(dur["transport"], 0.50)), "us")
	put("shardhost.queue_us_p50", us(quantile(dur["shardhost.queue"], 0.50)), "us")
	put("shardhost.queue_us_p99", us(quantile(dur["shardhost.queue"], 0.99)), "us")
	put("core.service_us_p50", us(quantile(dur["core.service"], 0.50)), "us")
	put("core.other_us_mean", mean(self["core.service"]), "us")
	put("core.hit_us_mean", mean(dur["core.hit"]), "us")
	put("core.plan_us_mean", mean(dur["core.plan"]), "us")
	put("core.verify_us_mean", mean(dur["core.verify"]), "us")
	put("core.overhead_us_mean", mean(dur["core.overhead"]), "us")
	put("core.consistency_us_mean", mean(dur["core.consistency"]), "us")
	put("bench.spans", float64(len(traced.spans)), "count")

	// Counters, from the untraced run.
	c := &plain.count
	q := float64(c.queries)
	put("transport.call_us_mean", us(c.transport)/float64(max(c.shardQueries, 1)), "us")
	put("core.overhead_share", ratio(float64(c.overhead), float64(c.service)), "ratio")
	put("subiso.us_per_test", ratio(us(c.verifyCPU), float64(c.tests)), "us")
	put("subiso.tests_per_query", ratio(float64(c.tests), q), "count")
	put("subiso.tests_saved_frac", ratio(float64(c.saved), float64(c.candidates)), "ratio")
	put("cache.zero_test_rate", ratio(float64(c.zeroTest), float64(c.shardQueries)), "ratio")
	put("cache.exact_hit_rate", ratio(float64(c.exactHit), float64(c.shardQueries)), "ratio")
	put("cache.hit_selectivity", ratio(float64(c.hitCandidates), float64(c.hitScanned)), "ratio")
	var evicted int64
	for i := range plain.after.PerShard {
		evicted += plain.after.PerShard[i].Cache.Evicted - plain.before.PerShard[i].Cache.Evicted
	}
	put("cache.evictions_per_kq", 1000*ratio(float64(evicted), q), "1/kq")
	put("cache.validity_ratio", plain.after.ValidityRatio, "ratio")
	// The WAL segment restarts at every snapshot, so bytes per op are
	// taken over the batches since the last one.
	ops := 0
	for _, b := range plain.applied {
		if b.epoch > plain.after.LastSnapshotEpoch {
			ops += len(b.ops)
		}
	}
	put("cache.repaired_bits_per_batch",
		ratio(float64(plain.after.RepairedBits-plain.before.RepairedBits), float64(len(plain.applied))), "count")
	put("persist.wal_append_us_p50", 1e6*plain.walAfter.quantileSince(plain.walBefore, 0.50), "us")
	put("persist.wal_append_us_p99", 1e6*plain.walAfter.quantileSince(plain.walBefore, 0.99), "us")
	put("persist.wal_bytes_per_op", ratio(float64(plain.after.WALBytes), float64(ops)), "B/op")
	put("proc.allocs_per_query", ratio(float64(plain.mallocs), q), "count")
	put("proc.gc_cpu_frac", ratio(plain.cpuAfter.gc-plain.cpuBefore.gc, plain.cpuAfter.total-plain.cpuBefore.total), "ratio")

	// Harness health.
	var lags []time.Duration
	for _, t := range append(queryTimings(plain.queries), plain.updates...) {
		lags = append(lags, t.lag)
	}
	put("bench.gen_lag_ms_p99", ms(quantile(lags, 0.99)), "ms")
	put("bench.query_samples", float64(len(plain.queries)), "count")
	p0 := windowQuantile(queryTimings(plain.queries), plain.elapsed, 0.5)
	p1 := windowQuantile(queryTimings(traced.queries), traced.elapsed, 0.5)
	put("bench.trace_overhead_frac", ratio(float64(p1-p0), float64(p0)), "ratio")
	return m
}

// writeSpans writes spans as tab-separated lines under a header.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "req\tid\tparent\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.Req, s.ID, s.Parent, s.Name, s.Start, s.End)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
