package cache

import (
	"testing"

	"gcplus/internal/bitset"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/subiso"
)

// FuzzParseModel checks that ParseModel accepts exactly CON and EVI and
// that accepted values round-trip through Model.String.
func FuzzParseModel(f *testing.F) {
	for _, s := range []string{"CON", "EVI", "", "con", "EVI ", "CONN", "E"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseModel(s)
		canonical := s == "CON" || s == "EVI"
		if err != nil {
			if canonical {
				t.Fatalf("ParseModel rejected canonical %q: %v", s, err)
			}
			return
		}
		if !canonical {
			t.Fatalf("ParseModel accepted %q as %v", s, m)
		}
		if m.String() != s {
			t.Fatalf("round trip %q → %v → %q", s, m, m.String())
		}
	})
}

// FuzzQueryIndex drives a random operation stream — admissions (with
// brute-force-derived relations, as the runtime would supply), window
// flushes, evictions, in-place refreshes, validation sweeps with repair
// commits, and purges — against both cache indexes and checks their
// invariants after every step. Refreshes draw answer and validity over
// graph ids 0–15, so they add and remove index bits and grow the
// invalidation index past the ids admissions use.
func FuzzQueryIndex(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{200, 63, 17, 99, 250, 1, 42, 42, 42, 13, 13, 13, 7, 7})
	f.Add([]byte{255, 254, 253, 3, 9, 27, 81, 243, 12, 34, 56, 78, 90})
	// Two admissions, a validation sweep with repairs, a refresh that
	// both adds and removes bits, and another sweep.
	f.Add([]byte{0, 1, 1, 2, 1, 0, 1, 1, 1, 2, 1, 1,
		8, 3, 3, 0, 2, 1, 1, 2, 0, 3, 3, 1, 0, 1,
		6, 0, 0xff, 0x00, 0xf0, 0x0f,
		8, 0, 1, 5, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := New(Config{Capacity: 6, WindowSize: 2, RepairQueue: 8})
		oracle := subiso.Brute{}
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		check := func(op string) {
			if err := c.CheckIndex(); err != nil {
				t.Fatalf("after %s: %v", op, err)
			}
			if err := c.CheckQueryIndex(); err != nil {
				t.Fatalf("after %s: %v", op, err)
			}
		}
		var live []*Entry
		refreshLive := func() {
			live = live[:0]
			c.ForEach(func(e *Entry) bool {
				live = append(live, e)
				return true
			})
		}
		ids16 := func() *bitset.Set { // a set over graph ids 0–15
			s := &bitset.Set{}
			for m, id := uint(next())|uint(next())<<8, 0; m != 0; m, id = m>>1, id+1 {
				if m&1 != 0 {
					s.Set(id)
				}
			}
			return s
		}
		for pos < len(data) {
			switch op := next() % 9; op {
			case 8: // validate a random log suffix, then commit some repairs
				var recs []dataset.Record
				seq := c.AppliedSeq()
				for n := 1 + int(next())%4; n > 0; n-- {
					seq++
					recs = append(recs, dataset.Record{
						Seq: seq, Op: dataset.OpType(next() % 4), GraphID: int(next()) % 16,
					})
				}
				c.Validate(dataset.Analyze(recs), seq)
				check("validate")
				for _, task := range c.DrainRepairs(int(next()) % 4) {
					c.RestoreBit(task.Entry, task.GraphID, next()%2 == 0)
					check("restore")
				}
			case 7: // purge (rare-ish)
				c.Purge()
				check("purge")
			case 6: // refresh a live entry in place
				refreshLive()
				if len(live) > 0 {
					e := live[int(next())%len(live)]
					c.RefreshEntry(e, ids16(), ids16())
					check("refresh")
				}
			default: // admit a small graph with exact relations
				b := graph.NewBuilder()
				n := 1 + int(next())%4
				for i := 0; i < n; i++ {
					b.AddVertex(graph.Label(next() % 3))
				}
				mask := next()
				edge := 0
				for u := 0; u < n; u++ {
					for v := u + 1; v < n; v++ {
						if mask&(1<<uint(edge%8)) != 0 {
							b.AddEdge(u, v)
						}
						edge++
					}
				}
				g := b.MustBuild()
				kind := Kind(op % 2)
				e := NewEntry(g, kind, bitset.FromIndices(int(next())%8), bitset.FromIndices(0, 1, 2, 3), 0, 1)
				containing, contained := []*Entry{}, []*Entry{}
				refreshLive()
				for _, o := range live {
					if o.Kind != kind {
						continue
					}
					if oracle.Contains(g, o.Query) {
						containing = append(containing, o)
					}
					if oracle.Contains(o.Query, g) {
						contained = append(contained, o)
					}
				}
				c.AddWithRelations(e, containing, contained)
				check("add")
			}
		}
	})
}

// FuzzParsePolicy checks that ParsePolicy accepts exactly the five
// replacement policies, as themselves.
func FuzzParsePolicy(f *testing.F) {
	for _, s := range []string{"PIN", "PINC", "HD", "LRU", "LFU", "", "pin", "PINCC", "H D"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePolicy(s)
		canonical := s == "PIN" || s == "PINC" || s == "HD" || s == "LRU" || s == "LFU"
		if err != nil {
			if canonical {
				t.Fatalf("ParsePolicy rejected canonical %q: %v", s, err)
			}
			return
		}
		if !canonical {
			t.Fatalf("ParsePolicy accepted %q as %v", s, p)
		}
		if string(p) != s {
			t.Fatalf("ParsePolicy changed %q to %q", s, p)
		}
	})
}
