package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"gcplus/internal/bench"
	"gcplus/internal/core"
	"gcplus/internal/router"
)

// smallInputs generates a workload's inputs at the smoke scale.
func smallInputs(t *testing.T, w workload, seed int64) *inputs {
	t.Helper()
	in, err := generate(w, bench.ScaleSmoke(), seed, 40)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func streams(in *inputs) ([]string, any) {
	keys := make([]string, len(in.queries))
	for i, q := range in.queries {
		keys[i] = structKey(q)
	}
	return keys, in.batches
}

func TestSameSeedSameStreams(t *testing.T) {
	for _, w := range workloads {
		q1, b1 := streams(smallInputs(t, w, 7))
		q2, b2 := streams(smallInputs(t, w, 7))
		if !reflect.DeepEqual(q1, q2) || !reflect.DeepEqual(b1, b2) {
			t.Errorf("%s: seed 7 gave two different query or update streams", w.name)
		}
		q3, b3 := streams(smallInputs(t, w, 8))
		if reflect.DeepEqual(q1, q3) || reflect.DeepEqual(b1, b3) {
			t.Errorf("%s: seeds 7 and 8 gave the same streams", w.name)
		}
	}
}

// interleaved serves a query after every update batch of in and
// returns the client that recorded it all.
func interleaved(t *testing.T, w workload, in *inputs) *client {
	t.Helper()
	srv, err := router.New(cloneGraphs(in.initial), w.options(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &client{srv: srv, in: in, t0: time.Now(), traced: true}
	for k := range in.batches {
		c.query(2*k, time.Now())
		c.update(k, time.Now())
		c.query(2*k+1, time.Now())
	}
	return c
}

func TestOracleChecksAnswersUnderChurn(t *testing.T) {
	w, _ := workloadByName("churn-loopback")
	in := smallInputs(t, w, 3)
	c := interleaved(t, w, in)
	if len(c.applied) != len(in.batches) {
		t.Fatalf("%d of %d batches acknowledged", len(c.applied), len(in.batches))
	}
	n, err := checkAnswers(in, c.applied, c.queries)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(c.queries) {
		t.Fatalf("checked %d of %d answers", n, len(c.queries))
	}

	bad := append([]queryRec(nil), c.queries...)
	bad[len(bad)/2].hash ^= 1
	if _, err := checkAnswers(in, c.applied, bad); err == nil {
		t.Fatal("oracle accepted a corrupted answer")
	}
	if _, err := checkAnswers(in, c.applied[:len(c.applied)/2], c.queries); err == nil {
		t.Fatal("oracle accepted answers stamped with an epoch it cannot replay")
	}
}

func TestSampleAnswers(t *testing.T) {
	recs := make([]queryRec, 3*oracleStride)
	for i := range recs {
		recs[i].pos = i
	}
	recs[oracleStride].failed = true
	hot, _ := workloadByName("hot-repeat")
	cold, _ := workloadByName("cold-uniform")
	if got := len(sampleAnswers(hot, recs)); got != len(recs)-1 {
		t.Errorf("hot-repeat: sampled %d answers, want every served one (%d)", got, len(recs)-1)
	}
	if got := len(sampleAnswers(cold, recs)); got != 2 {
		t.Errorf("cold-uniform: sampled %d answers, want 2", got)
	}
}

func TestAttributionSumsToWall(t *testing.T) {
	w, _ := workloadByName("cold-uniform")
	in := smallInputs(t, w, 5)
	c := interleaved(t, w, in)
	if c.attribErr != nil {
		t.Fatal(c.attribErr)
	}
	for _, r := range c.queries {
		p := r.crit
		if p.shard < 0 || p.shard >= shards {
			t.Fatalf("position %d: critical shard %d", r.pos, p.shard)
		}
		if got := p.routerSelf() + p.queue + p.service + p.transport; got != p.wall {
			t.Fatalf("position %d: parts sum to %v, wall is %v", r.pos, got, p.wall)
		}
	}
	// Self times of one query's spans add up to its wall time.
	total := map[int64]time.Duration{}
	root := map[int64]time.Duration{}
	selfTimes(c.spans, func(s *span, self time.Duration) {
		total[s.Req] += self
		if s.Parent < 0 {
			root[s.Req] = time.Duration(s.End - s.Start)
		}
	})
	if len(root) != len(c.queries)+len(c.applied) {
		t.Fatalf("%d traced requests, want %d", len(root), len(c.queries)+len(c.applied))
	}
	for req, d := range root {
		if total[req] != d {
			t.Fatalf("request %d: self times sum to %v, root span is %v", req, total[req], d)
		}
	}
}

func TestCriticalShard(t *testing.T) {
	res := &router.QueryResult{
		PerShard: []core.QueryStats{
			{QueryTime: 300 * time.Microsecond, Overhead: 50 * time.Microsecond, VerifyTime: 200 * time.Microsecond},
			{QueryTime: 100 * time.Microsecond, Overhead: 10 * time.Microsecond},
		},
		Queue:     []time.Duration{10 * time.Microsecond, 400 * time.Microsecond},
		Transport: []time.Duration{5 * time.Microsecond, 20 * time.Microsecond},
	}
	c := attribute(time.Millisecond, res)
	if c.shard != 1 || c.service != 110*time.Microsecond || c.routerSelf() != 470*time.Microsecond {
		t.Fatalf("got shard %d, service %v, router.self %v; want shard 1, 110µs, 470µs", c.shard, c.service, c.routerSelf())
	}
	if err := c.check(); err != nil {
		t.Fatal(err)
	}
	if err := attribute(400*time.Microsecond, res).check(); err == nil {
		t.Fatal("a critical path longer than the wall time passed the check")
	}
}

func TestSelfTimesClipChildren(t *testing.T) {
	spans := []span{
		{Req: 1, ID: 0, Parent: -1, Name: "a", Start: 0, End: 100},
		{Req: 1, ID: 1, Parent: 0, Name: "b", Start: 10, End: 40},
		{Req: 1, ID: 2, Parent: 0, Name: "c", Start: 30, End: 120}, // overlaps b, overruns a
		{Req: 2, ID: 0, Parent: -1, Name: "a", Start: 0, End: 5},
	}
	got := map[string]time.Duration{}
	selfTimes(spans, func(s *span, self time.Duration) { got[s.Name] += self })
	want := map[string]time.Duration{"a": 10 + 5, "b": 30, "c": 90}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestWALQuantileInterpolates(t *testing.T) {
	before := histogram{0.001: 5, 0.002: 5, 0.004: 5, math.Inf(1): 5}
	after := histogram{0.001: 5, 0.002: 55, 0.004: 105, math.Inf(1): 105}
	if got := after.quantileSince(before, 0.5); got < 0.00199 || got > 0.00201 {
		t.Fatalf("p50 %g, want 0.002", got)
	}
	if got := after.quantileSince(before, 0.75); got < 0.00299 || got > 0.00301 {
		t.Fatalf("p75 %g, want 0.003", got)
	}
}
