package cache

import (
	"fmt"

	"gcplus/internal/stats"
)

// Policy names a cache-replacement policy. Entries with the *lowest*
// scores are evicted first.
type Policy string

const (
	// PolicyPIN scores an entry by R, the total number of subgraph
	// isomorphism tests it spared (§7.1).
	PolicyPIN Policy = "PIN"
	// PolicyPINC extends PIN with the heuristic per-test cost estimate:
	// score = R × Ĉ, valuing entries whose spared tests were expensive.
	PolicyPINC Policy = "PINC"
	// PolicyHD is the paper's hybrid default: when the R distribution
	// across the cache has squared coefficient of variation > 1 (high
	// variability) it scores like PIN, otherwise like PINC.
	PolicyHD Policy = "HD"
	// PolicyLRU evicts the least recently used entry (GC baseline).
	PolicyLRU Policy = "LRU"
	// PolicyLFU evicts the least frequently contributing entry.
	PolicyLFU Policy = "LFU"
)

// ParsePolicy validates a policy name.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case PolicyPIN, PolicyPINC, PolicyHD, PolicyLRU, PolicyLFU:
		return Policy(s), nil
	}
	return "", fmt.Errorf("cache: unknown policy %q (want PIN, PINC, HD, LRU or LFU)", s)
}

// MarshalText returns the policy name.
func (p Policy) MarshalText() ([]byte, error) { return []byte(p), nil }

// UnmarshalText parses a policy name; empty means the default (HD), as
// in Config.
func (p *Policy) UnmarshalText(b []byte) error {
	if len(b) == 0 {
		*p = ""
		return nil
	}
	v, err := ParsePolicy(string(b))
	if err == nil {
		*p = v
	}
	return err
}

// scoreAll computes the eviction score of every entry under the policy.
// HD decides between PIN and PINC once per invocation, from the CoV² of
// rvalues — the cache's full R distribution as documented by
// Cache.RValues (admitted entries plus window). Eviction only ever runs
// right after a window flush, when the window is empty, so the sample
// and the scored entries coincide there; passing the distribution
// explicitly pins that semantics instead of leaving it an accident of
// call order. Config validation guarantees the policy is known, so an
// unrecognized value is a programming error and panics rather than
// silently scoring like PIN.
func (p Policy) scoreAll(entries []*Entry, rvalues []float64) []float64 {
	eff := p
	if p == PolicyHD {
		var r stats.Running
		for _, v := range rvalues {
			r.Add(v)
		}
		if r.CoV2() > 1 {
			eff = PolicyPIN
		} else {
			eff = PolicyPINC
		}
	}
	scores := make([]float64, len(entries))
	for i, e := range entries {
		switch eff {
		case PolicyPIN:
			scores[i] = e.R
		case PolicyPINC:
			scores[i] = e.R * e.CostEst
		case PolicyLRU:
			scores[i] = float64(e.LastUsed)
		case PolicyLFU:
			scores[i] = float64(e.Hits)
		default:
			panic(fmt.Sprintf("cache: scoreAll on unvalidated policy %q", p))
		}
	}
	return scores
}
