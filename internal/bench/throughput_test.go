package bench

import (
	"math/rand"
	"testing"
	"time"

	"gcplus/internal/obs"
	"gcplus/internal/router"
	"gcplus/internal/stats"
)

func TestRunThroughputSmoke(t *testing.T) {
	scale, err := ScaleByName("smoke")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunThroughput(ThroughputConfig{
		Options:     router.Options{Shards: 2},
		Scale:       scale,
		Clients:     3,
		UpdateEvery: 10,
		UpdateKind:  UpdateKindChurn,
		Seed:        42,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != scale.Queries {
		t.Fatalf("completed %d queries, want %d", res.Queries, scale.Queries)
	}
	if res.QPS <= 0 {
		t.Fatalf("QPS = %v", res.QPS)
	}
	// Percentiles come from the shared obs histogram: ordered, positive.
	if res.P50Millis <= 0 || res.P95Millis < res.P50Millis || res.P99Millis < res.P95Millis {
		t.Fatalf("percentiles disordered: p50=%v p95=%v p99=%v",
			res.P50Millis, res.P95Millis, res.P99Millis)
	}
	if res.MeanMillis <= 0 {
		t.Fatalf("mean = %v", res.MeanMillis)
	}
}

// TestHistogramPercentilesMatchSort pins the acceptance bound for the
// bench summary's switch to histogram percentiles: against the old
// sort-based computation, the histogram may only ever round *up*, by at
// most one log-bucket width (12.5%).
func TestHistogramPercentilesMatchSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := obs.NewHistogram()
	lat := make([]float64, 2000)
	for i := range lat {
		// Latency-shaped: log-normal-ish spread around 1ms.
		d := time.Duration(float64(time.Millisecond) * (0.1 + rng.ExpFloat64()))
		h.Observe(d)
		lat[i] = d.Seconds()
	}
	for _, p := range []float64{50, 95, 99} {
		sorted := stats.Percentile(lat, p) * 1000
		bucketed := h.Quantile(p/100) * 1000
		if bucketed < sorted {
			t.Errorf("p%v: histogram %vms below sort-based %vms", p, bucketed, sorted)
		}
		if bucketed > sorted*1.125+1e-9 {
			t.Errorf("p%v: histogram %vms more than one bucket above sort-based %vms", p, bucketed, sorted)
		}
	}
}
