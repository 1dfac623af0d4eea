package cache

import "gcplus/internal/dataset"

// The per-entry reference form of the Cache Validator: Algorithm 2
// applied to one entry at a time, visiting every touched graph id. The
// index-based Cache.Validate must be bit-identical to it (see
// TestValidateMatchesRefreshReference).

// Refresh applies Algorithm 2 to a single entry using the Log Analyzer's
// counters, and advances the entry's reflected sequence number to seq.
func (e *Entry) Refresh(c *dataset.Counters, seq uint64) {
	e.refresh(c, seq, false)
}

// RefreshStrict invalidates every touched bit without the UA/UR-exclusive
// survival rules — the ablated Algorithm 2 used to quantify how much of
// CON's benefit the optimizations contribute (still correct, strictly
// more conservative).
func (e *Entry) RefreshStrict(c *dataset.Counters, seq uint64) {
	e.refresh(c, seq, true)
}

func (e *Entry) refresh(c *dataset.Counters, seq uint64, strict bool) {
	for id := range c.Total {
		if strict {
			e.Valid.Clear(id)
			continue
		}
		keepPositive := c.UAExclusive(id)
		keepNegative := c.URExclusive(id)
		if e.Kind == KindSuper {
			keepPositive, keepNegative = keepNegative, keepPositive
		}
		switch {
		case keepPositive && e.Valid.Get(id) && e.Answer.Get(id):
			// validity survives (Algorithm 2 line 12–13)
		case keepNegative && e.Valid.Get(id) && !e.Answer.Get(id):
			// validity survives (Algorithm 2 line 14–15)
		default:
			e.Valid.Clear(id) // Algorithm 2 line 17
		}
	}
	e.Seq = seq
}
