package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"

	"gcplus/internal/router"
)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// quantile is the nearest-rank q-quantile of ds (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// Latency and rate figures are medians over windows: the run is cut
// into equal slices of at least a second, at most maxWindows of them,
// the figure is taken over the requests due in each slice, and the
// median over slices is reported. A burst of interference from outside
// the program, or a stall that recurs every few seconds such as a
// snapshot, then moves a few slices rather than the figure; a slice is
// still long enough to hold many garbage collections, so every slice
// sees their share of the time. A quantile thus reads as that of a
// typical second of the run.
const maxWindows = 20

// windowsOf is the number of slices a run of length elapsed is cut into.
func windowsOf(elapsed time.Duration) int {
	return max(1, min(maxWindows, int(elapsed/time.Second)))
}

// windowQuantile is the median over windows of the q-quantile of the
// successful requests' latencies.
func windowQuantile(ts []timing, elapsed time.Duration, q float64) time.Duration {
	per := make([][]time.Duration, windowsOf(elapsed))
	for _, t := range ts {
		if i := window(t, elapsed, len(per)); i >= 0 {
			per[i] = append(per[i], t.lat)
		}
	}
	var qs []float64
	for _, lat := range per {
		if len(lat) > 0 {
			qs = append(qs, float64(quantile(lat, q)))
		}
	}
	return time.Duration(median(qs))
}

// windowRate is the median over windows of the successful requests per
// second due in each.
func windowRate(ts []timing, elapsed time.Duration) float64 {
	counts := make([]float64, windowsOf(elapsed))
	for _, t := range ts {
		if i := window(t, elapsed, len(counts)); i >= 0 {
			counts[i]++
		}
	}
	return median(counts) / (elapsed / time.Duration(len(counts))).Seconds()
}

// window is the one of n slices of elapsed that t was due in, -1 for a
// failed request.
func window(t timing, elapsed time.Duration, n int) int {
	if t.failed {
		return -1
	}
	return min(int(t.at*time.Duration(n)/elapsed), n-1)
}

// median of xs, the mean of the middle two when len(xs) is even.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histogram is a Prometheus histogram's cumulative bucket counts by
// upper bound, summed over label sets.
type histogram map[float64]float64

// scrapeHistogram reads family name from the server's /metrics.
func scrapeHistogram(srv *router.Server, name string) (histogram, error) {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", rec.Code)
	}
	h := histogram{}
	prefix := name + "_bucket{"
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), prefix)
		if !ok {
			continue
		}
		line, _, _ = strings.Cut(line, " # ") // drop an exemplar
		labels, count, ok := strings.Cut(line, "} ")
		_, le, ok2 := strings.Cut(labels, `le="`)
		if !ok || !ok2 {
			return nil, fmt.Errorf("GET /metrics: malformed bucket line %q", sc.Text())
		}
		le, _, _ = strings.Cut(le, `"`)
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: bucket bound %q: %w", le, err)
		}
		n, err := strconv.ParseFloat(count, 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: bucket count %q: %w", count, err)
		}
		h[bound] += n
	}
	return h, sc.Err()
}

// quantileSince estimates the q-quantile, in seconds, of the
// observations made between scrapes before and h, interpolating
// linearly inside the bucket the quantile falls in.
func (h histogram) quantileSince(before histogram, q float64) float64 {
	bounds := make([]float64, 0, len(h))
	for b := range h {
		bounds = append(bounds, b)
	}
	slices.Sort(bounds)
	total := 0.0
	if len(bounds) > 0 {
		total = h[bounds[len(bounds)-1]] - before[bounds[len(bounds)-1]]
	}
	if total <= 0 {
		return 0
	}
	rank := q * total
	lo, prev := 0.0, 0.0
	for _, b := range bounds {
		cum := h[b] - before[b]
		if cum >= rank {
			if math.IsInf(b, 1) {
				return lo
			}
			return lo + (b-lo)*ratio(rank-prev, cum-prev)
		}
		lo, prev = b, cum
	}
	return lo
}

// cpuSample reads the Go runtime's CPU accounting.
type cpuSample struct{ gc, total float64 }

func readCPU() cpuSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuSample{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}
