package main

import (
	"fmt"
	"hash/fnv"
	"sort"

	"gcplus/internal/core"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/subiso"
)

// answerHash digests an answer set (ascending graph ids).
func answerHash(ids []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, id := range ids {
		for i := range buf {
			buf[i] = byte(uint64(id) >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// oracleStride is the fixed sampling stride of the consistency oracle:
// it checks the answers to stream positions divisible by it. Workloads
// whose stream repeats a small pool check every answer instead.
const oracleStride = 16

// sampleAnswers picks the served answers the oracle checks.
func sampleAnswers(w workload, recs []queryRec) []queryRec {
	var out []queryRec
	for _, r := range recs {
		if !r.failed && ((w.pool && w.batchRate == 0) || r.pos%oracleStride == 0) {
			out = append(out, r)
		}
	}
	return out
}

// checkAnswers compares each sampled answer with what Method M alone
// returns on the dataset version the answer is stamped with. The
// reference is a cache-disabled core.Runtime over initial, brought to
// each answer's epoch by replaying the acknowledged batches in epoch
// order. Answers to one pattern at one epoch share one reference run.
// It returns the number of answers checked, or an error naming the
// first mismatch.
func checkAnswers(in *inputs, applied []appliedBatch, sample []queryRec) (int, error) {
	ds := dataset.New(in.initial)
	rt, err := core.NewRuntime(ds, core.Options{Algorithm: subiso.VF2{}, VerifyParallelism: 1})
	if err != nil {
		return 0, err
	}
	batches := append([]appliedBatch(nil), applied...)
	sort.Slice(batches, func(i, j int) bool { return batches[i].epoch < batches[j].epoch })
	sample = append([]queryRec(nil), sample...)
	sort.SliceStable(sample, func(i, j int) bool { return sample[i].epoch < sample[j].epoch })

	var epoch uint64
	next := 0
	ref := make(map[int]uint64) // pattern -> reference hash at epoch
	for _, r := range sample {
		for epoch < r.epoch {
			if next >= len(batches) || batches[next].epoch != epoch+1 {
				return 0, fmt.Errorf("oracle: answer at epoch %d, but batch %d was never acknowledged", r.epoch, epoch+1)
			}
			for _, op := range batches[next].ops {
				if _, err := op.Apply(ds); err != nil {
					return 0, fmt.Errorf("oracle: replay epoch %d: %w", epoch+1, err)
				}
			}
			epoch++
			next++
			clear(ref)
		}
		p := in.pattern[r.pos%len(in.queries)]
		want, ok := ref[p]
		if !ok {
			want, err = methodM(rt, in.queries[r.pos%len(in.queries)])
			if err != nil {
				return 0, err
			}
			ref[p] = want
		}
		if r.hash != want {
			return 0, fmt.Errorf("oracle: answer to stream position %d at epoch %d differs from Method M", r.pos, r.epoch)
		}
	}
	return len(sample), nil
}

func methodM(rt *core.Runtime, q *graph.Graph) (uint64, error) {
	res, err := rt.SubgraphQuery(q)
	if err != nil {
		return 0, fmt.Errorf("oracle: reference query: %w", err)
	}
	return answerHash(res.AnswerIDs()), nil
}
