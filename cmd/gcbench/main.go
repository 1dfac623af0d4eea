// Command gcbench regenerates the evaluation of "Ensuring Consistency in
// Graph Cache for Graph-Pattern Queries" (EDBT 2017): Figures 4–6, the
// §7.2 insight statistics, and the ablation studies listed in DESIGN.md.
//
// Usage:
//
//	gcbench -figure all                 # Figures 4, 5 and 6 at repro scale
//	gcbench -figure 4 -scale smoke      # quick pass
//	gcbench -insights                   # §7.2 exact/sub/super hit stats
//	gcbench -ablation all               # policies, cache sizes, validity, churn
//	gcbench -figure all -scale paper    # full 40k × 10k run (hours)
//	gcbench -throughput -shards 8 -clients 16   # concurrent serving summary
//	gcbench -throughput -update-kind churn -update-every 10 -eager         # repair on
//	gcbench -throughput -update-kind churn -update-every 10 -eager -norepair  # baseline
//	gcbench -throughput -cache 2000 -queries 5000 -update-every 0             # large cache, query index on
//	gcbench -throughput -cache 2000 -queries 5000 -update-every 0 -hit-index=false  # linear-scan baseline
//	gcbench -throughput -planner                 # cost-based planner + plan cache on
//	gcbench -throughput -planner -plan-cache -1  # planning on, plan caching off
//	gcbench -warm-restart -scale smoke           # durability: recovery vs cold start
//	gcbench -throughput -burst 32 -max-inflight-queries 8   # flash crowd vs admission control
//	gcbench -throughput -trace-overhead          # tracing cost: untraced vs fully-sampled qps
//	gcbench -chaos -scale smoke                  # fault-injected soak + crash + warm restart
//	gcbench -chaos -wal-policy degrade-to-volatile
//
// The -warm-restart mode exercises the durability subsystem end to end:
// it warms a persistent server under churn, forces a snapshot, lands
// more churn in the WAL tail, kills the server without flushing, then
// measures recovery time, time-to-full-validity (background repair
// re-verifying replay-touched bits), and the recovered instance's hit
// rate over a repeat of the stream against both the pre-restart
// instance and a cold start — asserting the answers are bit-identical.
//
// The -throughput mode drives the sharded serving front-end (the system
// behind cmd/gcserve) with concurrent clients and a live update stream,
// and emits a JSON summary (queries/sec, p50/p95/p99 latency) so serving
// performance has a trajectory to compare across changes. With
// -update-kind churn the writer toggles edges of existing graphs (UA/UR)
// instead of adding new ones — the update-heavy scenario in which the
// background cache-repair pipeline recovers the validity ratio and hit
// rate that invalidation would otherwise bleed away; compare against a
// -norepair run on the same seed.
//
// The -burst flag turns a -throughput run into a flash-crowd scenario:
// N extra query clients spin up for the middle third of the run and the
// summary gains the shed rate, degraded-mode seconds and the p99 split
// into before/during/after the spike — the overload-resilience numbers
// (see README "Operating under failure").
//
// The -chaos mode is the fault-injection harness end to end: WAL and
// snapshot I/O fail, tear and stall on a seeded schedule while a query
// stream with interleaved churn runs; the server is then killed
// abruptly and warm-restarted, and every answer digest is compared
// against a fault-free reference replica. The JSON includes the full
// fault schedule, so a failing CI run is replayable from the artifact.
//
// Absolute times depend on the host; the speedup shapes are what
// reproduce the paper (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gcplus/internal/bench"
	"gcplus/internal/router"
)

// presets returns gcbench's defaults for the serving flags: tracing
// off, so the numbers measure the untraced fast path unless a rate is
// asked for, and 4 shards in every mode (the chaos benchmark's own
// default is 2). Every other knob keeps its zero meaning.
func presets() router.Options {
	return router.Options{Shards: 4, TraceSampleRate: -1}
}

func main() {
	opts := presets()
	opts.RegisterFlags(flag.CommandLine)
	var (
		scaleName = flag.String("scale", "repro", "experiment scale: smoke, repro or paper")
		figure    = flag.String("figure", "", "figure to regenerate: 4, 5, 6 or all")
		insights  = flag.Bool("insights", false, "print the §7.2 insight statistics")
		ablation  = flag.String("ablation", "", "ablation study: policy, cachesize, validity, changerate or all")
		methods   = flag.String("methods", "VF2,VF2+,GQL", "comma-separated Method M list (serving modes use the first unless -method is set)")
		workloads = flag.String("workloads", "", "comma-separated workload list (default all six)")
		seed      = flag.Int64("seed", 42, "experiment seed")
		verbose   = flag.Bool("v", false, "print per-run progress")

		throughput  = flag.Bool("throughput", false, "run the concurrent-serving throughput benchmark (JSON output)")
		clients     = flag.Int("clients", 8, "throughput: concurrent query clients")
		tpQueries   = flag.Int("queries", 0, "throughput: total queries (default scale's query count)")
		updateEvery = flag.Int("update-every", 50, "throughput: apply an update batch every N queries (0 disables)")
		updateKind  = flag.String("update-kind", "add", "throughput: update stream shape: add (live ingest) or churn (UA/UR edge toggles on existing graphs)")
		burst       = flag.Int("burst", 0, "throughput: flash-crowd mode — N extra query clients for the middle third of the run (0 disables)")
		traceOver   = flag.Bool("trace-overhead", false, "throughput: rerun with every request traced and report the qps delta as trace_overhead (answers must stay bit-identical)")

		chaos       = flag.Bool("chaos", false, "run the chaos benchmark: fault-injected WAL/snapshot I/O under load, abrupt kill, warm restart, differential answer check (JSON output)")
		warmRestart = flag.Bool("warm-restart", false, "run the durability warm-restart benchmark: time-to-full-validity and hit-rate-at-t after crash recovery vs a cold start (JSON output)")
		tailBatches = flag.Int("tail-batches", 0, "warm-restart: churn batches applied after the snapshot, i.e. the WAL tail replayed on recovery (0 = default)")
	)
	flag.Parse()
	if *figure == "" && !*insights && *ablation == "" && !*throughput && !*warmRestart && !*chaos {
		*figure = "all"
	}

	sc, err := bench.ScaleByName(*scaleName)
	if err != nil {
		fatal(err)
	}
	progress := bench.Progress(nil)
	if *verbose {
		progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	methodList := splitList(*methods)
	if opts.Method == "" {
		opts.Method = methodList[0]
	}
	var spec bench.WorkloadSpec // zero value: each mode's default
	var specs []bench.WorkloadSpec
	for _, name := range splitList(*workloads) {
		spec, err := bench.SpecByName(name)
		if err != nil {
			fatal(err)
		}
		specs = append(specs, spec)
	}
	if len(specs) > 0 {
		spec = specs[0]
	}

	if *throughput {
		res, err := bench.RunThroughput(bench.ThroughputConfig{
			Options:       opts,
			Scale:         sc,
			Workload:      spec,
			Clients:       *clients,
			Queries:       *tpQueries,
			UpdateEvery:   *updateEvery,
			UpdateKind:    *updateKind,
			BurstClients:  *burst,
			TraceOverhead: *traceOver,
			Seed:          *seed,
		}, progress)
		if err != nil {
			fatal(err)
		}
		if err := bench.WriteThroughputJSON(os.Stdout, res); err != nil {
			fatal(err)
		}
	}
	if *warmRestart {
		res, err := bench.RunWarmRestart(bench.WarmRestartConfig{
			Options:     opts,
			Scale:       sc,
			Workload:    spec,
			Queries:     *tpQueries,
			UpdateEvery: *updateEvery,
			TailBatches: *tailBatches,
			Seed:        *seed,
		}, progress)
		if err != nil {
			fatal(err)
		}
		if err := bench.WriteWarmRestartJSON(os.Stdout, res); err != nil {
			fatal(err)
		}
	}
	if *chaos {
		res, err := bench.RunChaos(bench.ChaosConfig{
			Options:     opts,
			Scale:       sc,
			Workload:    spec,
			Queries:     *tpQueries,
			UpdateEvery: *updateEvery,
			Seed:        *seed,
		}, progress)
		if err != nil {
			fatal(err)
		}
		if err := bench.WriteChaosJSON(os.Stdout, res); err != nil {
			fatal(err)
		}
	}
	if *figure != "" {
		runFigures(*figure, sc, *seed, methodList, specs, progress)
	}
	if *insights {
		rows, err := bench.RunInsights(sc, *seed, methodList[0], progress)
		if err != nil {
			fatal(err)
		}
		bench.PrintInsights(os.Stdout, rows)
	}
	if *ablation != "" {
		runAblations(*ablation, sc, *seed, methodList[0], progress)
	}
}

func runFigures(figure string, sc bench.Scale, seed int64, methods []string, specs []bench.WorkloadSpec, progress bench.Progress) {
	switch figure {
	case "4", "5", "6", "all":
	default:
		fatal(fmt.Errorf("unknown figure %q (want 4, 5, 6 or all)", figure))
	}
	// Figures 5 and 6 need only one method; Figure 4 needs all three.
	if figure == "5" || figure == "6" {
		methods = methods[:1]
	}
	m, err := bench.RunMatrix(sc, seed, methods, specs, progress)
	if err != nil {
		fatal(err)
	}
	if err := m.VerifyIndependence(); err != nil {
		fmt.Fprintf(os.Stderr, "WARNING: %v\n", err)
	}
	if figure == "4" || figure == "all" {
		m.Figure4(os.Stdout)
		fmt.Println()
	}
	if figure == "5" || figure == "all" {
		m.Figure5(os.Stdout)
		fmt.Println()
	}
	if figure == "6" || figure == "all" {
		m.Figure6(os.Stdout)
		fmt.Println()
	}
}

func runAblations(which string, sc bench.Scale, seed int64, method string, progress bench.Progress) {
	spec, _ := bench.SpecByName("ZZ")
	type study struct {
		name string
		run  func() ([]bench.AblationRow, error)
	}
	studies := []study{
		{"Ablation: replacement policies (CON, ZZ)", func() ([]bench.AblationRow, error) {
			return bench.RunPolicyAblation(sc, seed, method, spec, progress)
		}},
		{"Ablation: cache capacity (CON, ZZ)", func() ([]bench.AblationRow, error) {
			return bench.RunCacheSizeAblation(sc, seed, method, spec, nil, progress)
		}},
		{"Ablation: Algorithm 2 validity optimizations (CON, ZZ)", func() ([]bench.AblationRow, error) {
			return bench.RunValidityAblation(sc, seed, method, spec, progress)
		}},
		{"Ablation: dataset change rate (ZZ)", func() ([]bench.AblationRow, error) {
			return bench.RunChangeRateAblation(sc, seed, method, spec, progress)
		}},
	}
	selected := map[string]int{"policy": 0, "cachesize": 1, "validity": 2, "changerate": 3}
	if which != "all" {
		idx, ok := selected[which]
		if !ok {
			fatal(fmt.Errorf("unknown ablation %q", which))
		}
		studies = studies[idx : idx+1]
	}
	for _, s := range studies {
		rows, err := s.run()
		if err != nil {
			fatal(err)
		}
		bench.PrintAblation(os.Stdout, s.name, rows)
		fmt.Println()
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gcbench:", err)
	os.Exit(1)
}
