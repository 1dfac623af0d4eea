// Command gcserve is the GC+ query-serving daemon: a sharded, concurrent
// HTTP front-end over the semantic graph cache. Queries fan out to N
// runtime shards (each with its own partition, cache and CON/EVI
// consistency machinery) while dataset updates flow through an
// epoch-sequenced single-writer path, so every answer reflects one
// consistent dataset version.
//
// With -data-dir the daemon is durable: update batches are written to a
// per-shard WAL and dataset + cache state is snapshotted periodically,
// so a restart warm-starts from the persisted state (the dataset flags
// are only used when the directory holds no state yet) with every
// warmed cache entry intact. SIGINT/SIGTERM trigger a graceful
// shutdown: in-flight requests drain, shard queues flush, and a final
// snapshot is written before the process exits 0.
//
// Usage:
//
//	gcserve -synthetic 2000 -shards 8            # serve a generated dataset
//	gcserve -dataset graphs.txt -model EVI       # serve graphs from a file
//	gcserve -synthetic 2000 -data-dir /var/lib/gcplus   # durable serving
//	gcserve -data-dir /var/lib/gcplus            # warm restart from state
//
// API:
//
//	POST /query?kind=sub|super    body: one graph in the text codec
//	     &trace=1                 include the per-shard stage trace
//	     &limit=N                 return the N smallest answer ids (exact
//	                              prefix; "truncated" marks a cut)
//	POST /update                  body: {"ops":[{"op":"ADD","graph":"..."},
//	                                            {"op":"DEL","id":3},
//	                                            {"op":"UA","id":2,"u":0,"v":1}]}
//	GET  /stats                   server + per-shard statistics
//	GET  /metrics                 Prometheus text exposition
//	GET  /healthz                 liveness probe
//	GET  /readyz                  readiness probe (repair backlog gated)
//	GET  /debug/slowlog           slow-query log (-slowlog-threshold)
//	GET  /debug/traces            retained distributed traces (sampled +
//	                              anomalous); /debug/traces/{id} expands
//	                              one span tree
//
// Flags: besides -addr, -dataset, -synthetic, -seed, -pprof-addr
// (serve net/http/pprof on a side listener) and -log-json (structured
// logs as JSON lines), every flag is a serving knob bound by
// gcplus.ServeOptions.RegisterFlags; `gcserve -h` lists them and README
// "Flags and options" maps each to its field. gcserve presets
// -query-timeout 2s and -update-timeout 10s.
//
// Example:
//
//	printf 't q\nv 0 1\nv 1 2\ne 0 1\n' | curl -s --data-binary @- \
//	    'localhost:8844/query?kind=sub'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registered on the side listener only (-pprof-addr)
	"os"
	"os/signal"
	"syscall"
	"time"

	"gcplus"
	"gcplus/internal/persist"
)

// presets returns gcserve's defaults for the serving flags: request
// deadlines on. Every other knob keeps its zero meaning.
func presets() gcplus.ServeOptions {
	return gcplus.ServeOptions{QueryTimeout: 2 * time.Second, UpdateTimeout: 10 * time.Second}
}

func main() {
	opts := presets()
	opts.RegisterFlags(flag.CommandLine)
	var (
		addr      = flag.String("addr", ":8844", "listen address")
		datafile  = flag.String("dataset", "", "initial dataset file (text codec); mutually exclusive with -synthetic")
		synthN    = flag.Int("synthetic", 0, "generate an AIDS-like synthetic dataset of this many graphs")
		seed      = flag.Int64("seed", 42, "synthetic dataset seed")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this side listener (e.g. localhost:6060; empty = off)")
		logJSON   = flag.Bool("log-json", false, "emit structured logs as JSON lines instead of text")
	)
	flag.Parse()

	logger := newLogger(*logJSON)
	opts.Logger = logger

	haveState := opts.DataDir != "" && persist.HasState(opts.DataDir)
	initial, err := loadDataset(*datafile, *synthN, *seed, haveState)
	if err != nil {
		fatal(logger, "dataset load failed", err)
	}
	if haveState {
		// The shard partition is baked into the persisted state; adopt
		// its count so a bare `gcserve -data-dir DIR` restart just works.
		if n, ok := persist.StateShards(opts.DataDir); ok && n != opts.Shards {
			if opts.Shards != 0 {
				logger.Warn("overriding -shards with persisted partition count",
					"data_dir", opts.DataDir, "persisted_shards", n, "flag_shards", opts.Shards)
			}
			opts.Shards = n
		}
	}

	srv, err := gcplus.NewServer(initial, opts)
	if err != nil {
		fatal(logger, "server construction failed", err)
	}

	if entries, epoch, ok := srv.Recovered(); ok {
		logger.Info("warm restart", "data_dir", opts.DataDir, "cache_entries", entries, "epoch", epoch)
	}
	st, err := srv.Stats()
	if err != nil {
		fatal(logger, "stats failed", err)
	}
	// Log the settings the server resolved, not the raw flags: repair
	// runs only for CON caches, and the query index only with a cache.
	run := srv.Options()
	shardCache := st.PerShard[0].Cache
	logger.Info("serving",
		"addr", *addr, "graphs", st.LiveGraphs, "shards", srv.Shards(),
		"method", run.Method, "model", shardCache.Model, "policy", shardCache.Policy,
		"cache", shardCache.Capacity, "eager", run.EagerValidate, "repair", run.RepairParallelism > 0,
		"hit_index", run.Cache != nil && !run.Cache.DisableHitIndex, "planner", run.EnablePlanner,
		"durable", run.DataDir != "", "wal_policy", run.WALPolicy, "transport", st.Transport,
		"query_timeout", run.QueryTimeout.String(),
		"max_inflight_queries", run.MaxInFlightQueries,
		"slowlog_threshold", run.SlowLogThreshold.String())

	// Listener timeouts: a slow or stalled client must never hold a
	// connection (and its admission slot) forever. The write timeout
	// tracks the configured request deadlines so a legitimately long
	// query is not cut off mid-response by the transport.
	writeTimeout := 30 * time.Second
	for _, d := range []time.Duration{opts.QueryTimeout, opts.UpdateTimeout} {
		if d > 0 && d+5*time.Second > writeTimeout {
			writeTimeout = d + 5*time.Second
		}
	}

	// The pprof side listener serves http.DefaultServeMux (where the
	// net/http/pprof import registers) so the profiling surface never
	// leaks onto the public API mux. Profile captures stream for tens
	// of seconds, so its write timeout is generous rather than tight.
	if *pprofAddr != "" {
		pprofSrv := &http.Server{
			Addr:              *pprofAddr,
			Handler:           nil, // DefaultServeMux
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			logger.Info("pprof listener up", "addr", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil {
				logger.Error("pprof listener failed", "addr", *pprofAddr, "err", err)
			}
		}()
	}

	// Graceful shutdown: SIGINT/SIGTERM stop the listener, drain
	// in-flight requests, then Close flushes shard queues, the WAL and
	// a final snapshot before the process exits 0.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		srv.Close()
		fatal(logger, "listener failed", err)
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down (signal received)")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Error("http shutdown", "err", err)
	}
	if err := srv.Close(); err != nil {
		// The daemon is down either way, but the final snapshot did not
		// land; exit non-zero so supervisors notice the degraded flush.
		fatal(logger, "final flush failed (previous snapshot + WAL remain)", err)
	}
	logger.Info("state flushed, bye")
}

// newLogger builds the process logger: text for humans by default,
// JSON lines under -log-json for log pipelines.
func newLogger(jsonOut bool) *slog.Logger {
	if jsonOut {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

func fatal(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "err", err)
	os.Exit(1)
}

func loadDataset(file string, synthN int, seed int64, haveState bool) ([]*gcplus.Graph, error) {
	switch {
	case file != "" && synthN > 0:
		return nil, fmt.Errorf("-dataset and -synthetic are mutually exclusive")
	case haveState:
		// Recovery replaces the initial dataset entirely; don't spend
		// boot time parsing or synthesizing graphs recovery will drop
		// (restart units routinely keep the first boot's dataset flags).
		return nil, nil
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return gcplus.ParseGraphs(f)
	case synthN > 0:
		return gcplus.GenerateAIDSLike(synthN, seed)
	}
	return nil, errors.New("provide -dataset FILE or -synthetic N (or -data-dir with existing state)")
}
