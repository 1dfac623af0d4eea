// Command perfbench is the repository's benchmark: it drives a
// router.Server in this process through its public API on one of three
// workloads and prints end-to-end metrics (-trace 0) or per-layer
// metrics (-trace 1) as one JSON line, after checking the served answers
// against Method M alone. PREDICTIONS.md records which layer metric
// should move which end-to-end metric on which workload.
//
//	bash perfbench/run.sh --workload hot-repeat --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	name := flag.String("workload", "", "workload to run: hot-repeat, cold-uniform or churn-loopback")
	seed := flag.Int64("seed", 1, "seed of the query and update streams (the dataset and the pattern pool are fixed)")
	seconds := flag.Int("seconds", 20, "length of the timed phase in seconds")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from an untraced and a traced run")
	out := flag.String("out", ".bench_build/perfbench", "directory for span files and server data dirs")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *traceMode, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds, traceMode int, out string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 || traceMode < 0 || traceMode > 1 {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	cfg := newConfig(w, seed, seconds, out)
	var res *result
	if traceMode == 0 {
		res, err = runEndToEnd(cfg)
	} else {
		res, err = runLayers(cfg)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: served answers or attribution failed the check (see above)", w.name)
	}
	return nil
}
