package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gcplus/internal/changeplan"
	"gcplus/internal/router"
)

// timing is one request as its client saw it.
type timing struct {
	// at is the due time (open loop) or the send (closed loop), from the
	// phase start; lat runs from then to the return, and lag is how late
	// the send was against the due time.
	at, lat, lag time.Duration
	failed       bool
}

// queryRec is one query as its client saw it.
type queryRec struct {
	timing
	pos   int // stream position
	epoch uint64
	hash  uint64
	crit  critPath
}

// appliedBatch is what one acknowledged batch did to the dataset: the
// oracle replays these in epoch order.
type appliedBatch struct {
	epoch uint64
	ops   []changeplan.Op
}

// counters sums the per-shard query stats the router returns.
type counters struct {
	queries, shardQueries     int64
	tests, candidates, saved  int64
	zeroTest, exactHit        int64
	hitCandidates, hitScanned int64
	verifyCPU, transport      time.Duration
	overhead, service         time.Duration
}

func (c *counters) add(res *router.QueryResult) {
	c.queries++
	for i := range res.PerShard {
		st := &res.PerShard[i]
		c.shardQueries++
		c.tests += int64(st.SubIsoTests)
		c.candidates += int64(st.CandidatesBefore)
		c.saved += int64(st.TestsSaved)
		if st.SubIsoTests == 0 {
			c.zeroTest++
		}
		if st.ExactHit {
			c.exactHit++
		}
		c.hitCandidates += int64(st.HitCandidates)
		c.hitScanned += int64(st.HitScanned)
		c.verifyCPU += st.VerifyCPUTime
		c.overhead += st.Overhead
		c.service += st.QueryTime + st.Overhead
		c.transport += res.Transport[i]
	}
}

func (c *counters) merge(o *counters) {
	c.queries += o.queries
	c.shardQueries += o.shardQueries
	c.tests += o.tests
	c.candidates += o.candidates
	c.saved += o.saved
	c.zeroTest += o.zeroTest
	c.exactHit += o.exactHit
	c.hitCandidates += o.hitCandidates
	c.hitScanned += o.hitScanned
	c.verifyCPU += o.verifyCPU
	c.transport += o.transport
	c.overhead += o.overhead
	c.service += o.service
}

// client is one request-issuing goroutine's private state; drivers
// merge clients after their goroutines have ended.
type client struct {
	srv     *router.Server
	in      *inputs
	t0      time.Time // phase start, the origin of span times
	traced  bool
	queries []queryRec
	updates []timing
	applied []appliedBatch
	count   counters
	spans   []span
	// attribErr keeps the first broken critical-path split.
	attribErr error
}

func (c *client) timing(due, sent, end time.Time, err error) timing {
	return timing{at: due.Sub(c.t0), lat: end.Sub(due), lag: sent.Sub(due), failed: err != nil}
}

// query sends stream position pos, due at due, and records it.
func (c *client) query(pos int, due time.Time) {
	q := c.in.queries[pos%len(c.in.queries)]
	sent := time.Now()
	res, err := c.srv.SubgraphQuery(q)
	end := time.Now()
	r := queryRec{timing: c.timing(due, sent, end, err), pos: pos}
	if err != nil {
		c.queries = append(c.queries, r)
		return
	}
	r.epoch, r.hash = res.Epoch, answerHash(res.IDs)
	r.crit = attribute(end.Sub(sent), res)
	if err := r.crit.check(); err != nil && c.attribErr == nil {
		c.attribErr = err
	}
	c.count.add(res)
	c.queries = append(c.queries, r)
	if c.traced {
		c.spans = querySpans(c.spans, int64(pos)<<1, sent.Sub(c.t0).Nanoseconds(), r.crit)
	}
}

// update sends batch k, due at due, and records it.
func (c *client) update(k int, due time.Time) {
	sent := time.Now()
	res, err := c.srv.Update(c.in.batches[k])
	end := time.Now()
	c.updates = append(c.updates, c.timing(due, sent, end, err))
	if res != nil {
		// A batch whose WAL append failed is still applied in memory,
		// so its acknowledged ops are part of the dataset either way.
		b := appliedBatch{epoch: res.Epoch}
		for i, op := range res.Ops {
			if op.Err == nil {
				b.ops = append(b.ops, c.in.batches[k][i])
			} else {
				c.updates[len(c.updates)-1].failed = true
			}
		}
		c.applied = append(c.applied, b)
	}
	if c.traced {
		c.spans = updateSpans(c.spans, int64(k)<<1|1, sent.Sub(c.t0).Nanoseconds(), end.Sub(sent))
	}
}

// closedLoop runs n clients that each send their next query as soon as
// the previous one returns, taking stream positions from next, until
// done reports true. It returns once every client has ended.
func closedLoop(mk func() *client, n int, next *atomic.Int64, done func(now time.Time) bool) []*client {
	cs := make([]*client, n)
	var wg sync.WaitGroup
	for i := range cs {
		cs[i] = mk()
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for now := time.Now(); !done(now); now = time.Now() {
				c.query(int(next.Add(1)-1), now)
			}
		}(cs[i])
	}
	wg.Wait()
	return cs
}

// until is a closedLoop stop condition: true from t on.
func until(t time.Time) func(time.Time) bool {
	return func(now time.Time) bool { return !now.Before(t) }
}

// openLoop sends on a fixed schedule regardless of replies: one query
// sender at qRate from stream position from and, if bRate > 0, one
// writer at bRate from batch 0, both until stop. A send that falls
// behind its schedule goes out at once, and its latency still counts
// from its due time. It returns the sender's and the writer's clients
// once both have ended.
func openLoop(mk func() *client, qRate, bRate float64, from int, stop time.Time) []*client {
	start := time.Now()
	run := func(c *client, rate float64, limit int, send func(c *client, i int, due time.Time)) {
		period := time.Duration(float64(time.Second) / rate)
		for i := 0; i < limit; i++ {
			due := start.Add(time.Duration(i) * period)
			if !due.Before(stop) {
				return
			}
			sleepUntil(due)
			send(c, i, due)
		}
	}
	sender := mk()
	cs := []*client{sender}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		run(sender, qRate, int(^uint(0)>>1), func(c *client, i int, due time.Time) { c.query(from+i, due) })
	}()
	if bRate > 0 {
		writer := mk()
		cs = append(cs, writer)
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(writer, bRate, len(writer.in.batches), func(c *client, i int, due time.Time) { c.update(i, due) })
		}()
	}
	wg.Wait()
	return cs
}

// sleepUntil blocks until t. It sleeps in the nanosleep system call: Go
// timers wake up to a millisecond late on some kernels, and an open
// loop counts every microsecond of that as latency.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}
