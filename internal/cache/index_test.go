package cache

import (
	"math/rand"
	"testing"

	"gcplus/internal/bitset"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
)

// requireIndex is the in-package form of testutil.RequireCacheIndex
// (testutil imports cache, so cache's own tests cannot import it back).
func requireIndex(t *testing.T, c *Cache) {
	t.Helper()
	if err := c.CheckIndex(); err != nil {
		t.Fatal(err)
	}
}

func randomEntry(rng *rand.Rand, maxID int) *Entry {
	kind := KindSub
	if rng.Intn(2) == 1 {
		kind = KindSuper
	}
	answer := bitset.New(maxID)
	valid := bitset.New(maxID)
	for id := 0; id < maxID; id++ {
		if rng.Intn(2) == 0 {
			valid.Set(id)
		}
		if rng.Intn(3) == 0 {
			answer.Set(id)
		}
	}
	e := NewEntry(graph.Path(1, 2), kind, answer, valid, 0, 1)
	e.R = float64(rng.Intn(50))
	return e
}

// TestIndexAcrossAdmitEvictPurge drives the full entry lifecycle —
// admission, window flush, eviction, validation, repair restore, purge —
// checking the invalidation-index invariant after every mutation.
func TestIndexAcrossAdmitEvictPurge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := New(Config{Capacity: 8, WindowSize: 3, Policy: PolicyPIN, RepairQueue: 64})
	const maxID = 12
	for i := 0; i < 40; i++ {
		c.Add(randomEntry(rng, maxID))
		requireIndex(t, c)
		if rng.Intn(4) == 0 {
			id := rng.Intn(maxID)
			op := dataset.OpUpdateAddEdge
			if rng.Intn(2) == 0 {
				op = dataset.OpUpdateRemoveEdge
			}
			seq := c.AppliedSeq() + 1
			c.Validate(dataset.Analyze([]dataset.Record{{Seq: seq, Op: op, GraphID: id}}), seq)
			requireIndex(t, c)
		}
		if rng.Intn(5) == 0 {
			for _, task := range c.DrainRepairs(4) {
				c.RestoreBit(task.Entry, task.GraphID, rng.Intn(2) == 0)
				requireIndex(t, c)
			}
		}
	}
	if c.Size() != 8 {
		t.Fatalf("size %d, want capacity 8", c.Size())
	}
	c.Purge()
	requireIndex(t, c)
	if c.PendingRepairs() != 0 {
		t.Fatalf("purge left %d queued repairs", c.PendingRepairs())
	}
	// The cache remains usable after a purge: slots are recycled.
	c.Add(randomEntry(rng, maxID))
	requireIndex(t, c)
}

// TestValidateMatchesRefreshReference is the differential check of the
// index-based Validator: its effect on every entry must be bit-identical
// to the reference per-entry Refresh/RefreshStrict sweep.
func TestValidateMatchesRefreshReference(t *testing.T) {
	for _, strict := range []bool{false, true} {
		rng := rand.New(rand.NewSource(11))
		c := New(Config{Capacity: 10, WindowSize: 4, StrictInvalidation: strict})
		const maxID = 10
		var refs []*Entry // parallel clones refreshed with the reference code
		for i := 0; i < 12; i++ {
			e := randomEntry(rng, maxID)
			ref := NewEntry(e.Query, e.Kind, e.Answer, e.Valid, e.Seq, e.CostEst)
			c.Add(e)
			refs = append(refs, ref)
		}
		var recs []dataset.Record
		seq := uint64(0)
		for id := 0; id < maxID; id++ {
			for n := rng.Intn(3); n > 0; n-- {
				seq++
				recs = append(recs, dataset.Record{
					Seq: seq, Op: dataset.OpType(rng.Intn(4)), GraphID: id,
				})
			}
		}
		ctrs := dataset.Analyze(recs)
		c.Validate(ctrs, seq)
		requireIndex(t, c)

		byID := map[int]*Entry{}
		c.ForEach(func(e *Entry) bool {
			byID[e.ID] = e
			return true
		})
		for i := 0; i < len(refs); i++ {
			e, ok := byID[i]
			if !ok {
				continue // evicted; reference has nothing to compare against
			}
			ref := refs[i]
			if strict {
				ref.RefreshStrict(ctrs, seq)
			} else {
				ref.Refresh(ctrs, seq)
			}
			if !e.Valid.Equal(ref.Valid) {
				t.Fatalf("strict=%v entry %d: Validate got %v, Refresh reference %v",
					strict, i, e.Valid.Indices(), ref.Valid.Indices())
			}
			if e.Seq != seq {
				t.Fatalf("strict=%v entry %d: Seq %d, want %d", strict, i, e.Seq, seq)
			}
		}
	}
}

// TestWindowFlushAtExactCapacity flushes a window that lands the cache
// exactly at capacity: nothing may be evicted.
func TestWindowFlushAtExactCapacity(t *testing.T) {
	c := New(Config{Capacity: 4, WindowSize: 2, Policy: PolicyPIN})
	for i := 0; i < 4; i++ {
		c.Add(testEntry(KindSub, nil, []int{0}, 0))
	}
	if c.Size() != 4 || c.WindowLen() != 0 {
		t.Fatalf("size=%d window=%d, want 4/0", c.Size(), c.WindowLen())
	}
	_, evicted, _, _ := c.Counters()
	if evicted != 0 {
		t.Fatalf("evicted %d entries at exact capacity", evicted)
	}
	requireIndex(t, c)
	// One more flush pushes past capacity and must evict exactly the
	// overflow.
	c.Add(testEntry(KindSub, nil, []int{0}, 0))
	c.Add(testEntry(KindSub, nil, []int{0}, 0))
	if c.Size() != 4 {
		t.Fatalf("size %d after overflow flush, want 4", c.Size())
	}
	_, evicted, _, _ = c.Counters()
	if evicted != 2 {
		t.Fatalf("evicted %d, want 2", evicted)
	}
	requireIndex(t, c)
}

// TestEvictionTiesAllEqual: with every score equal the tiebreak must
// evict the oldest IDs, deterministically.
func TestEvictionTiesAllEqual(t *testing.T) {
	c := New(Config{Capacity: 2, WindowSize: 5, Policy: PolicyLFU})
	for i := 0; i < 5; i++ {
		c.Add(testEntry(KindSub, nil, nil, 0)) // Hits all zero → all tied
	}
	var kept []int
	c.ForEach(func(e *Entry) bool {
		kept = append(kept, e.ID)
		return true
	})
	if len(kept) != 2 || kept[0] != 3 || kept[1] != 4 {
		t.Fatalf("kept %v, want [3 4] (oldest evicted on ties)", kept)
	}
	requireIndex(t, c)
}

// TestRValuesEmptyCache: the R snapshot of an empty cache is empty, not
// nil-dereferencing or fabricated.
func TestRValuesEmptyCache(t *testing.T) {
	c := New(Config{})
	if vals := c.RValues(); len(vals) != 0 {
		t.Fatalf("RValues on empty cache = %v", vals)
	}
	if ratio := c.ValidityRatio(bitset.FromIndices(0, 1)); ratio != 1 {
		t.Fatalf("empty-cache validity ratio %v, want vacuous 1", ratio)
	}
}

// TestRepairQueueBoundAndDrain checks the queue bound (drops counted,
// validator never blocked), FIFO drain order, and dead-entry skipping.
func TestRepairQueueBoundAndDrain(t *testing.T) {
	c := New(Config{Capacity: 10, WindowSize: 2, RepairQueue: 3})
	e1 := testEntry(KindSub, []int{0, 1, 2}, []int{0, 1, 2, 3}, 0)
	e2 := testEntry(KindSub, []int{0, 1, 2}, []int{0, 1, 2, 3}, 0)
	c.Add(e1)
	c.Add(e2)
	// DELs invalidate every bit: 8 clears chase a queue of 3.
	recs := []dataset.Record{
		{Seq: 1, Op: dataset.OpDelete, GraphID: 0},
		{Seq: 2, Op: dataset.OpDelete, GraphID: 1},
		{Seq: 3, Op: dataset.OpDelete, GraphID: 2},
		{Seq: 4, Op: dataset.OpDelete, GraphID: 3},
	}
	c.Validate(dataset.Analyze(recs), 4)
	requireIndex(t, c)
	if c.PendingRepairs() != 3 {
		t.Fatalf("pending %d, want 3 (bounded)", c.PendingRepairs())
	}
	_, dropped := c.RepairCounters()
	if dropped != 5 {
		t.Fatalf("dropped %d, want 5", dropped)
	}
	tasks := c.DrainRepairs(2)
	if len(tasks) != 2 || c.PendingRepairs() != 1 {
		t.Fatalf("drained %d pending %d, want 2/1", len(tasks), c.PendingRepairs())
	}
	// FIFO: the first cleared pairs come out first; the validator clears
	// in ascending entry-ID order per graph.
	if tasks[0].Entry.ID > tasks[1].Entry.ID ||
		(tasks[0].Entry.ID == tasks[1].Entry.ID && tasks[0].GraphID >= tasks[1].GraphID) {
		t.Fatalf("drain not FIFO: %v then %v", tasks[0], tasks[1])
	}

	// Restore works and maintains the index; restoring on a dead entry
	// is refused.
	if !c.RestoreBit(tasks[0].Entry, tasks[0].GraphID, true) {
		t.Fatal("RestoreBit refused a live entry")
	}
	requireIndex(t, c)
	if !tasks[0].Entry.Valid.Get(tasks[0].GraphID) || !tasks[0].Entry.Answer.Get(tasks[0].GraphID) {
		t.Fatal("RestoreBit did not set the bits")
	}
	restored, _ := c.RepairCounters()
	if restored != 1 {
		t.Fatalf("restored counter %d, want 1", restored)
	}

	c.Purge()
	if c.PendingRepairs() != 0 {
		t.Fatal("purge must clear the repair queue")
	}
	if c.RestoreBit(e1, 0, true) {
		t.Fatal("RestoreBit resurrected a purged entry")
	}
	requireIndex(t, c)
}

// TestRefreshEntryReindexes: the iso-hit refresh path must rebuild the
// index for the rewritten bitsets.
func TestRefreshEntryReindexes(t *testing.T) {
	c := New(Config{Capacity: 4, WindowSize: 2})
	e := testEntry(KindSub, []int{0}, []int{0, 1}, 0)
	c.Add(e)
	c.RefreshEntry(e, bitset.FromIndices(2), bitset.FromIndices(2, 3, 4))
	requireIndex(t, c)
	if got := e.Valid.String(); got != "{2, 3, 4}" {
		t.Fatalf("Valid after refresh = %s", got)
	}
	if got := e.Answer.String(); got != "{2}" {
		t.Fatalf("Answer after refresh = %s", got)
	}
}

// TestRefreshEntryDiffMatchesRebuild checks the diff-based RefreshEntry
// against the remove-all/add-all rebuild it replaces: a parallel index
// drops every old validity bit of the refreshed entry and re-adds every
// new one, and after each refresh both must hold the same slot set for
// every graph id and the same pair count. The refreshes add and remove
// bits, and reach ids past the end of the index so the slice grows.
func TestRefreshEntryDiffMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := New(Config{Capacity: 16, WindowSize: 4})
	const maxID = 10
	for i := 0; i < 10; i++ {
		c.Add(randomEntry(rng, maxID))
	}
	var live []*Entry
	var ref invIndex
	c.ForEach(func(e *Entry) bool {
		live = append(live, e)
		ref.addEntry(e)
		return true
	})
	requireIndex(t, c)
	grew := false
	for step := 0; step < 200; step++ {
		e := live[rng.Intn(len(live))]
		hi := maxID
		if step%5 == 4 {
			hi = len(c.idx.byGraph) + 1 + rng.Intn(100) // beyond the slice
		}
		answer, valid := &bitset.Set{}, &bitset.Set{}
		for id := 0; id < hi; id++ {
			if rng.Intn(3) == 0 {
				answer.Set(id)
			}
			if rng.Intn(2) == 0 {
				valid.Set(id)
			}
		}
		before := len(c.idx.byGraph)
		ref.removeEntry(e)
		c.RefreshEntry(e, answer, valid)
		ref.addEntry(e)
		grew = grew || len(c.idx.byGraph) > before
		requireIndex(t, c)
		if !e.Valid.Equal(valid) || !e.Answer.Equal(answer) {
			t.Fatalf("step %d: entry holds %v/%v, want %v/%v", step, e.Answer, e.Valid, answer, valid)
		}
		if c.idx.pairs() != ref.pairs() {
			t.Fatalf("step %d: %d pairs, rebuild holds %d", step, c.idx.pairs(), ref.pairs())
		}
		for id := 0; id < max(len(c.idx.byGraph), len(ref.byGraph)); id++ {
			got, want := c.idx.get(id), ref.get(id)
			if got == nil {
				got = &bitset.Set{}
			}
			if want == nil {
				want = &bitset.Set{}
			}
			if !got.Equal(want) {
				t.Fatalf("step %d graph %d: slots %v, rebuild %v", step, id, got, want)
			}
		}
	}
	if !grew {
		t.Fatal("no refresh grew the index past its length")
	}
	if got := c.Stats().IndexPairs; got != ref.pairs() {
		t.Fatalf("Stats().IndexPairs = %d, want %d", got, ref.pairs())
	}
}
