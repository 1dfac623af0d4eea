package main

import (
	"fmt"
	"sort"
	"time"

	"gcplus/internal/router"
)

// critPath splits one query's wall time along its critical shard: the
// shard whose queue + core service + transport is largest, since the
// router waits for the slowest shard before it merges. router.self is
// the rest of the wall time: admission, fan-out, merge and whatever the
// host spends outside the core runtime.
type critPath struct {
	shard     int
	wall      time.Duration // router call as timed by the client
	transport time.Duration // round trip minus host time
	queue     time.Duration // wait in the shard owner's FIFO
	service   time.Duration // core runtime: QueryTime + Overhead
	// Stages of the critical shard's core service.
	overhead, consistency, hit, plan, verify time.Duration
}

// clockTolerance is how far below zero router.self may read before the
// attribution counts as broken: the parts are read from different
// clocks (the client's, the router's and the host's).
const clockTolerance = 50 * time.Microsecond

// attribute picks res's critical shard and splits wall along it.
func attribute(wall time.Duration, res *router.QueryResult) critPath {
	c := critPath{shard: -1, wall: wall}
	var worst time.Duration = -1
	for i := range res.PerShard {
		st := &res.PerShard[i]
		svc := st.QueryTime + st.Overhead
		if d := res.Queue[i] + svc + res.Transport[i]; d > worst {
			worst = d
			c.shard = i
			c.transport, c.queue, c.service = res.Transport[i], res.Queue[i], svc
			c.overhead, c.consistency = st.Overhead, st.ConsistencyTime
			c.hit, c.plan, c.verify = st.HitTime, st.PlanTime, st.VerifyTime
		}
	}
	return c
}

// routerSelf is the wall time not spent on the critical shard's path.
func (c critPath) routerSelf() time.Duration {
	return c.wall - c.transport - c.queue - c.service
}

// check reports a split whose residual is negative beyond clock
// tolerance: the parts would then claim more time than the call took.
func (c critPath) check() error {
	if s := c.routerSelf(); s < -clockTolerance {
		return fmt.Errorf("critical path exceeds wall time: wall %v, transport %v + queue %v + service %v (router.self %v)",
			c.wall, c.transport, c.queue, c.service, s)
	}
	return nil
}

// span is one traced interval. All spans of one request share Req;
// Parent is the index (within the request) of the enclosing span, -1
// for the root. Times are nanoseconds from the phase start.
type span struct {
	Req        int64
	ID, Parent int
	Name       string
	Start, End int64
}

// querySpans renders a query's critical path as a span tree: router.query
// over the whole call, with children transport, shardhost.queue and
// core.service, the last with core.overhead (holding core.consistency),
// core.hit, core.plan and core.verify. Durations are measured; the order
// of siblings inside their parent is nominal, since only durations come
// back from the router.
func querySpans(dst []span, req int64, start int64, c critPath) []span {
	root := len(dst)
	add := func(parent int, name string, at int64, d time.Duration) int64 {
		p := -1
		if parent >= 0 {
			p = parent - root
		}
		dst = append(dst, span{Req: req, ID: len(dst) - root, Parent: p, Name: name, Start: at, End: at + int64(d)})
		return at + int64(d)
	}
	add(-1, "router.query", start, c.wall)
	at := add(root, "transport", start, c.transport)
	at = add(root, "shardhost.queue", at, c.queue)
	svc := len(dst)
	add(root, "core.service", at, c.service)
	ov := len(dst)
	end := add(svc, "core.overhead", at, c.overhead)
	add(ov, "core.consistency", at, c.consistency)
	end = add(svc, "core.hit", end, c.hit)
	end = add(svc, "core.plan", end, c.plan)
	add(svc, "core.verify", end, c.verify)
	return dst
}

// updateSpans renders an update batch: the router returns no per-shard
// breakdown for updates, so the root span is the whole record.
func updateSpans(dst []span, req int64, start int64, wall time.Duration) []span {
	return append(dst, span{Req: req, Parent: -1, Name: "router.update", Start: start, End: start + int64(wall)})
}

// selfTimes calls fn for every span with its self time: its duration
// minus the part of it its children cover. Spans of one request must be
// contiguous, as querySpans and updateSpans leave them.
func selfTimes(spans []span, fn func(s *span, self time.Duration)) {
	for lo := 0; lo < len(spans); {
		hi := lo + 1
		for hi < len(spans) && spans[hi].Req == spans[lo].Req {
			hi++
		}
		req := spans[lo:hi]
		children := make([][][2]int64, len(req))
		for i := range req {
			if p := req[i].Parent; p >= 0 {
				children[p] = append(children[p], [2]int64{req[i].Start, req[i].End})
			}
		}
		for i := range req {
			s := &req[i]
			fn(s, time.Duration(s.End-s.Start-covered(s.Start, s.End, children[i])))
		}
		lo = hi
	}
}

// covered is the length of [lo, hi) that the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
