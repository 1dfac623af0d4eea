package gcplus_test

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"gcplus"
)

// TestServeOptionsLiterals builds the ServeOptions literals the package
// documentation shows, from outside the package, and checks that the
// cache settings reach every shard: in Server.Stats and on GET /stats.
func TestServeOptionsLiterals(t *testing.T) {
	graphs, err := gcplus.GenerateAIDSLike(30, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		opts     gcplus.ServeOptions
		shards   int
		capacity int
		model    string
	}{
		{"defaults", gcplus.ServeOptions{Shards: 8}, 8, 100, "CON"},
		{"loopback EVI", gcplus.ServeOptions{
			Shards:    2,
			Transport: gcplus.TransportLoopback,
			Cache:     &gcplus.CacheConfig{Capacity: 50, Model: gcplus.EVI},
		}, 2, 50, "EVI"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := gcplus.NewServer(graphs, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			st, err := srv.Stats()
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
			var wire struct {
				PerShard []struct {
					Cache struct {
						Capacity int    `json:"capacity"`
						Model    string `json:"model"`
					} `json:"cache"`
				} `json:"per_shard"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &wire); err != nil {
				t.Fatalf("GET /stats: %v (%s)", err, rec.Body.String())
			}
			if len(st.PerShard) != tc.shards || len(wire.PerShard) != tc.shards {
				t.Fatalf("shards: Stats %d, /stats %d, want %d", len(st.PerShard), len(wire.PerShard), tc.shards)
			}
			for i := range st.PerShard {
				c, w := st.PerShard[i].Cache, wire.PerShard[i].Cache
				if c.Capacity != tc.capacity || c.Model != tc.model || w.Capacity != tc.capacity || w.Model != tc.model {
					t.Fatalf("shard %d cache: Stats %d/%s, /stats %d/%s, want %d/%s",
						i, c.Capacity, c.Model, w.Capacity, w.Model, tc.capacity, tc.model)
				}
			}
		})
	}
}
