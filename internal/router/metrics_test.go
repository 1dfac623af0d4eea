package router

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gcplus/internal/changeplan"
)

// scrape serves one request through h and returns status and body. It
// never calls t.Fatal, so scraper goroutines may use it.
func scrape(h http.Handler, path string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.String()
}

// promSamples maps every sample line of an exposition body (series with
// its rendered labels, exemplar dropped) to its value.
func promSamples(body string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		line, _, _ = strings.Cut(line, " # ")
		i := strings.LastIndex(line, " ")
		if i < 0 {
			return nil, fmt.Errorf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("sample line %q: %w", line, err)
		}
		if _, dup := out[line[:i]]; dup {
			return nil, fmt.Errorf("series %s rendered twice", line[:i])
		}
		out[line[:i]] = v
	}
	return out, nil
}

// TestMetricsConcurrentScrapesRenderOneSnapshot: several scrapers hit
// /metrics while queries run. Every body must be rendered from a single
// Stats snapshot, so the aggregate query counter (defined as the
// maximum per-shard count) equals the largest per-shard series in the
// same body. Prometheus HA pairs scrape concurrently, so a body mixing
// two snapshots is a real inconsistency, not a test artefact.
func TestMetricsConcurrentScrapesRenderOneSnapshot(t *testing.T) {
	initial := genGraphs(t, 30, 21)
	srv, err := New(initial, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	queries := testQueries(initial)

	stop := make(chan struct{})
	var qwg sync.WaitGroup
	for w := 0; w < 2; w++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := srv.SubgraphQuery(queries[(w+i)%len(queries)]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	const scrapers, scrapes = 4, 60
	var mixed, total atomic.Int64
	var firstMixed atomic.Value
	var swg sync.WaitGroup
	for g := 0; g < scrapers; g++ {
		swg.Add(1)
		go func() {
			defer swg.Done()
			for i := 0; i < scrapes; i++ {
				status, body := scrape(h, "/metrics")
				if status != http.StatusOK {
					t.Errorf("metrics status %d", status)
					return
				}
				m, err := promSamples(body)
				if err != nil {
					t.Error(err)
					return
				}
				var maxShard float64
				for sid := 0; sid < srv.Shards(); sid++ {
					maxShard = max(maxShard, m[fmt.Sprintf(`gcplus_shard_queries_total{shard="%d"}`, sid)])
				}
				total.Add(1)
				if q := m["gcplus_queries_total"]; q != maxShard {
					mixed.Add(1)
					firstMixed.CompareAndSwap(nil, fmt.Sprintf("queries_total %v, max shard %v", q, maxShard))
				}
				if e, c := m["gcplus_cache_entries"], m["gcplus_cache_capacity"]; e > c {
					t.Errorf("gcplus_cache_entries %v exceeds gcplus_cache_capacity %v", e, c)
				}
			}
		}()
	}
	swg.Wait()
	close(stop)
	qwg.Wait()
	if n := mixed.Load(); n > 0 {
		t.Fatalf("%d of %d concurrent scrapes mixed two snapshots (first: %v)", n, total.Load(), firstMixed.Load())
	}

	// Quiescent: the summed cache gauge equals /stats' per-shard entries.
	_, body := scrape(h, "/metrics")
	m, err := promSamples(body)
	if err != nil {
		t.Fatal(err)
	}
	status, js := scrape(h, "/stats")
	if status != http.StatusOK {
		t.Fatalf("stats status %d", status)
	}
	var st Stats
	if err := json.Unmarshal([]byte(js), &st); err != nil {
		t.Fatal(err)
	}
	entries := 0
	for _, ss := range st.PerShard {
		entries += ss.Cache.Entries
	}
	if got := m["gcplus_cache_entries"]; got != float64(entries) {
		t.Fatalf("gcplus_cache_entries = %v, /stats per-shard entries sum to %d", got, entries)
	}
}

// snapshotSeries is what /metrics must render for each snapshot-backed
// series of st, keyed like promSamples. It is spelled out field by field
// here, independently of the registrations, so a series wired to the
// wrong Stats field fails the agreement test.
func snapshotSeries(st *Stats) map[string]float64 {
	m := map[string]float64{
		"gcplus_queries_total":             float64(st.Queries),
		"gcplus_epoch":                     float64(st.Epoch),
		"gcplus_live_graphs":               float64(st.LiveGraphs),
		"gcplus_hit_rate":                  st.HitRate,
		"gcplus_cache_validity_ratio":      st.ValidityRatio,
		"gcplus_repair_pending":            float64(st.PendingRepairs),
		"gcplus_repaired_bits_total":       float64(st.RepairedBits),
		"gcplus_repair_dropped_total":      float64(st.RepairDropped),
		"gcplus_slow_queries_total":        float64(st.SlowQueries),
		"gcplus_wal_bytes":                 float64(st.WALBytes),
		"gcplus_wal_appends_total":         float64(st.WALAppends),
		"gcplus_wal_append_errors_total":   float64(st.WALAppendErrors),
		"gcplus_snapshots_written_total":   float64(st.SnapshotsWritten),
		"gcplus_last_snapshot_epoch":       float64(st.LastSnapshotEpoch),
		"gcplus_plan_cache_hits_total":     float64(st.PlanCacheHits),
		"gcplus_plan_cache_misses_total":   float64(st.PlanCacheMisses),
		"gcplus_degradation_level":         float64(st.DegradationLevel),
		"gcplus_degraded_seconds_total":    st.DegradedSeconds,
		`gcplus_shed_total{kind="query"}`:  float64(st.ShedQueries),
		`gcplus_shed_total{kind="update"}`: float64(st.ShedUpdates),
		"gcplus_durable_epoch":             float64(st.DurableEpoch),
		"gcplus_wal_volatile_shards":       float64(st.WALVolatileShards),
	}
	var entries, window, capacity int
	for _, ss := range st.PerShard {
		entries += ss.Cache.Entries
		window += ss.Cache.Window
		capacity += ss.Cache.Capacity
		l := fmt.Sprintf(`{shard="%d"}`, ss.Shard)
		m["gcplus_shard_queries_total"+l] = float64(ss.Metrics.Queries)
		m["gcplus_shard_live_graphs"+l] = float64(ss.LiveGraphs)
		m["gcplus_shard_hit_rate"+l] = ss.HitRate
		m["gcplus_shard_validity_ratio"+l] = ss.ValidityRatio
		m["gcplus_shard_queue_len"+l] = float64(ss.QueueLen)
		m["gcplus_shard_repair_pending"+l] = float64(ss.Cache.PendingRepairs)
		m["gcplus_shard_repair_dropped_total"+l] = float64(ss.Cache.RepairDropped)
		m["gcplus_shard_wal_bytes"+l] = float64(ss.WALBytes)
	}
	m["gcplus_cache_entries"] = float64(entries)
	m["gcplus_cache_window"] = float64(window)
	m["gcplus_cache_capacity"] = float64(capacity)
	for i, stage := range deadlineStages {
		m[fmt.Sprintf(`gcplus_deadline_exceeded_total{stage="%s"}`, stage)] = float64(st.deadlineByStage[i])
	}
	return m
}

var leLabel = regexp.MustCompile(`,?le="[^"]*"`)

// seriesSet lists the distinct (family, TYPE, label set) triples of an
// exposition body, sorted; histogram buckets fold into their family with
// the le label dropped.
func seriesSet(t *testing.T, body string) []string {
	t.Helper()
	kinds := make(map[string]string)
	set := make(map[string]bool)
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			kinds[name] = kind
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, _, _ := strings.Cut(line, " ")
		name, labels, _ := strings.Cut(series, "{")
		if labels != "" {
			labels = "{" + labels
		}
		fam := name
		if _, ok := kinds[fam]; !ok {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suf); ok && kinds[base] == "histogram" {
					fam = base
				}
			}
			labels = leLabel.ReplaceAllString(labels, "")
			if labels == "{}" {
				labels = ""
			}
		}
		kind, ok := kinds[fam]
		if !ok {
			t.Fatalf("sample %q has no TYPE line", line)
		}
		set[fam+" "+kind+" "+labels] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, strings.TrimSpace(k))
	}
	slices.Sort(out)
	return out
}

// TestMetricsAgreeWithStats pins the /metrics surface of a durable
// three-shard server: the (family, TYPE, label set) list must match the
// golden file, and at quiescence every snapshot-backed series must equal
// the Stats field it is rendered from — per-shard series, the
// deadline {stage} split and the summed cache gauges included.
func TestMetricsAgreeWithStats(t *testing.T) {
	initial := genGraphs(t, 24, 17)
	srv, err := New(initial, Options{Shards: 3, DataDir: t.TempDir(), NoSync: true, pressureInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	for i, q := range testQueries(initial) {
		if _, err := srv.SubgraphQuery(q); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Update([]changeplan.Op{changeplan.AddOp(initial[i].Clone())}); err != nil {
			t.Fatal(err)
		}
	}
	// Distinct per-stage counts, so a label wired to the wrong stage
	// shows up as a wrong value.
	for i := range deadlineStages {
		srv.deadlines[i].Add(int64(i + 1))
	}

	t.Run("golden", func(t *testing.T) {
		_, body := scrape(h, "/metrics")
		got := seriesSet(t, body)
		raw, err := os.ReadFile("testdata/metrics_series.golden")
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Split(strings.TrimSpace(string(raw)), "\n")
		for _, s := range want {
			if !slices.Contains(got, s) {
				t.Errorf("series missing from /metrics: %s", s)
			}
		}
		for _, s := range got {
			if !slices.Contains(want, s) {
				t.Errorf("series not in golden list: %s", s)
			}
		}
	})

	t.Run("agreement", func(t *testing.T) {
		// Background repair may still move counters after the last
		// update; retry until two Stats snapshots taken around the
		// scrape agree, then hold the scrape to them exactly.
		for try := 0; ; try++ {
			before, err := srv.Stats()
			if err != nil {
				t.Fatal(err)
			}
			_, body := scrape(h, "/metrics")
			after, err := srv.Stats()
			if err != nil {
				t.Fatal(err)
			}
			want := snapshotSeries(before)
			if !maps.Equal(want, snapshotSeries(after)) {
				if try == 50 {
					t.Fatal("server never quiesced")
				}
				time.Sleep(20 * time.Millisecond)
				continue
			}
			got, err := promSamples(body)
			if err != nil {
				t.Fatal(err)
			}
			for series, v := range want {
				if g, ok := got[series]; !ok || g != v {
					t.Errorf("%s = %v (present %v), Stats says %v", series, g, ok, v)
				}
			}
			if up := got["gcplus_uptime_seconds"]; up < before.UptimeSec || up > after.UptimeSec {
				t.Errorf("gcplus_uptime_seconds = %v, outside [%v, %v]", up, before.UptimeSec, after.UptimeSec)
			}
			// Every counter and gauge is either checked above or a live
			// instrument recorded outside the snapshot.
			for series := range got {
				name, _, _ := strings.Cut(series, "{")
				if _, ok := want[series]; ok || strings.HasSuffix(name, "_bucket") ||
					strings.HasSuffix(name, "_sum") || strings.HasSuffix(name, "_count") ||
					name == "gcplus_uptime_seconds" || name == "gcplus_transport_requests_total" {
					continue
				}
				t.Errorf("series %s is not checked against Stats", series)
			}
			return
		}
	})
}
