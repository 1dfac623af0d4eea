package main

import (
	"fmt"
	"math/rand"
	"strings"

	"gcplus/internal/bench"
	"gcplus/internal/cache"
	"gcplus/internal/changeplan"
	"gcplus/internal/graph"
	"gcplus/internal/router"
	"gcplus/internal/synthetic"
)

// workload is one traffic mix. Only the fields that define the mix are
// handed to the server (shards, transport, per-shard cache capacity,
// data dir); everything else runs the server's shipped defaults, so a
// change of default shows up in the numbers.
type workload struct {
	name string
	// pool selects the Type B "0%" stream (popular answerable patterns
	// that repeat); otherwise the Type A "UU" stream (fresh BFS extracts
	// from uniformly chosen graphs and nodes).
	pool bool
	// cacheCap is the per-shard cache capacity; 0 keeps the default.
	cacheCap  int
	transport string
	// clients > 0 runs a closed loop with that many clients; 0 runs an
	// open loop: one query sender at queryRate and one writer at
	// batchRate, both in 1/s.
	clients   int
	queryRate float64
	batchRate float64
	// persist turns on the WAL and snapshots (default cadence) under a
	// fresh data dir, with NoSync: no fsync per WAL append.
	persist bool
}

// Every workload uses the repro dataset (1200 graphs, mean 45 vertices)
// on 2 shards, sized for a 2-CPU machine.
const (
	shards = 2
	// opsPerBatch is the size of one churn batch (UA/UR edge toggles).
	opsPerBatch = 5
	// probeBatches is the size of the closed-loop update probe run after
	// the read-only workloads' timed phase (see probe).
	probeBatches = 30000
)

var workloads = []workload{
	{name: "hot-repeat", pool: true, cacheCap: 500, transport: router.TransportLocal, clients: 2},
	{name: "cold-uniform", transport: router.TransportLocal, clients: 2},
	{name: "churn-loopback", pool: true, cacheCap: 500, transport: router.TransportLoopback,
		queryRate: 400, batchRate: 55, persist: true},
}

func workloadByName(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// options returns the server options of one workload; dataDir is used
// only by persistent workloads.
func (w workload) options(dataDir string) router.Options {
	o := router.Options{Shards: shards, Transport: w.transport}
	if w.cacheCap > 0 {
		o.Cache = &cache.Config{Capacity: w.cacheCap}
	}
	if w.persist {
		o.DataDir = dataDir
		o.NoSync = true
	}
	return o
}

// inputs is everything a run sends, generated from the seed alone.
type inputs struct {
	initial []*graph.Graph
	// queries is the query stream; the load loops walk it in order and wrap.
	queries []*graph.Graph
	// pattern maps each stream position to its distinct pattern: equal
	// numbers mean structurally identical queries.
	pattern []int
	// batches is the update stream: the churn writer's, or the probe's.
	batches [][]changeplan.Op
}

// streamLen is the query stream length; the load loops wrap around it. A Type
// A query met again 10000 queries later is long gone from a 100-entry
// cache, so wrapping does not turn the cold stream into repeats, and a
// short stream keeps the benchmark's inputs from inflating the heap the
// server's collector scans.
const streamLen = 10000

// datasetSeed fixes the dataset. Like the AIDS dataset the paper holds
// fixed while it varies workloads, the dataset does not change with
// --seed; the query and update streams do.
const datasetSeed = 1

// generate builds a workload's inputs at scale sc from seed with the
// repository's generators: synthetic.Generate for the dataset and
// bench.WorkloadSpec.Generate for the query stream.
func generate(w workload, sc bench.Scale, seed int64, nBatches int) (*inputs, error) {
	syn := synthetic.Default().WithGraphs(sc.DatasetGraphs)
	syn.MeanVertices, syn.StdVertices, syn.MaxVertices = sc.MeanVertices, sc.StdVertices, sc.MaxVertices
	syn.Seed = datasetSeed
	initial, err := synthetic.Generate(syn)
	if err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	specName, streamSeed := "UU", seed+1
	if w.pool {
		// The pool and its Zipf draw frequencies are fixed with the
		// dataset: a run's cost then does not hinge on which patterns a
		// seed happens to make the most popular. The seed orders the
		// stream. The 0% stream never draws a no-answer pattern; one
		// keeps the generator from synthesizing a pool nobody queries.
		specName, streamSeed = "0%", datasetSeed+1
		sc.NoAnswerPoolSize = 1
	}
	spec, err := bench.SpecByName(specName)
	if err != nil {
		return nil, err
	}
	wl, err := spec.Generate(initial, sc, streamSeed)
	if err != nil {
		return nil, fmt.Errorf("generate %s stream: %w", specName, err)
	}
	if w.pool {
		rng := rand.New(rand.NewSource(seed + 1))
		rng.Shuffle(len(wl.Queries), func(i, j int) { wl.Queries[i], wl.Queries[j] = wl.Queries[j], wl.Queries[i] })
	}
	in := &inputs{initial: initial, queries: wl.Queries, pattern: make([]int, len(wl.Queries))}
	ids := make(map[string]int)
	for i, q := range wl.Queries {
		k := structKey(q)
		id, ok := ids[k]
		if !ok {
			id = len(ids)
			ids[k] = id
		}
		in.pattern[i] = id
	}
	in.batches = toggleBatches(initial, rand.New(rand.NewSource(seed+2)), nBatches)
	return in, nil
}

// structKey is a graph's labels and sorted edge list: equal keys mean
// identical graphs, so repeats of one pool pattern share a key.
func structKey(g *graph.Graph) string {
	var b strings.Builder
	for v := 0; v < g.NumVertices(); v++ {
		fmt.Fprintf(&b, "%d,", g.Label(v))
	}
	b.WriteByte('|')
	for _, e := range g.EdgeList() {
		fmt.Fprintf(&b, "%d-%d,", e.U, e.V)
	}
	return b.String()
}

// toggleBatches draws n batches of opsPerBatch edge toggles. Each op
// picks a graph and one of its original edges and removes it if it is
// present, or adds it back if an earlier op removed it, so every op
// applies.
func toggleBatches(initial []*graph.Graph, rng *rand.Rand, n int) [][]changeplan.Op {
	removed := make(map[[3]int]bool)
	out := make([][]changeplan.Op, n)
	for b := range out {
		ops := make([]changeplan.Op, 0, opsPerBatch)
		for len(ops) < opsPerBatch {
			id := rng.Intn(len(initial))
			g := initial[id]
			if g.NumEdges() == 0 {
				continue
			}
			e := g.EdgeList()[rng.Intn(g.NumEdges())]
			u, v := int(e.U), int(e.V)
			k := [3]int{id, u, v}
			if removed[k] {
				ops = append(ops, changeplan.AddEdgeOp(id, u, v))
			} else {
				ops = append(ops, changeplan.RemoveEdgeOp(id, u, v))
			}
			removed[k] = !removed[k]
		}
		out[b] = ops
	}
	return out
}

// cloneGraphs copies the dataset so each server build pays the full
// per-graph set-up cost instead of reusing memoized summaries.
func cloneGraphs(gs []*graph.Graph) []*graph.Graph {
	out := make([]*graph.Graph, len(gs))
	for i, g := range gs {
		out[i] = g.Clone()
	}
	return out
}
