package gcplus

import "testing"

// maxWarmHitAllocs bounds the allocations of one exact repeat hit on a
// warm cache (about 70 on this fixture). The repeat-hit refresh touches
// only the validity bits that change, so the count must not grow with
// the number of valid dataset graphs.
const maxWarmHitAllocs = 150

// TestWarmHitAllocs pins the allocations of one warm exact-hit query,
// on BenchmarkQueryWarmCache's fixture.
func TestWarmHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	sys, queries := warmCacheSystem(t)
	q := queries[0]
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := sys.SubgraphQuery(q.Clone()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxWarmHitAllocs {
		t.Fatalf("warm exact hit: %.0f allocs/query, want <= %d", allocs, maxWarmHitAllocs)
	}
	t.Logf("warm exact hit: %.0f allocs/query", allocs)
}
