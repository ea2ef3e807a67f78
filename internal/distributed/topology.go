package distributed

import (
	"math"
	"math/bits"

	"dlsys/internal/device"
)

// Topology selects the communication pattern of averaging rounds. It only
// decides how bytes move between the workers and the aggregate: compute,
// screening, robust aggregation and the update are one implementation for
// every pattern. The zero value (TopoDefault) is the parameter-server star;
// the explicit topologies run a reduce-broadcast collective whose per-hop
// costs are priced by device.TransferTime and charged to the simulated
// clock, so time-per-round scales with worker count the way the real
// pattern does instead of O(n²).
type Topology string

const (
	// TopoDefault is the parameter-server star: every worker uploads to a
	// central server, retrying lost or corrupted sends, and the server
	// broadcasts the aggregate back to each worker.
	TopoDefault Topology = ""
	// TopoAllToAll is the full mesh: m-1 serialized phases in which every
	// member exchanges the whole payload with one peer. O(n) phases of
	// O(n) concurrent full-payload hops — the baseline the scalable
	// topologies beat, and the maximally-connected fallback they degrade
	// to when healing cannot preserve quorum.
	TopoAllToAll Topology = "all-to-all"
	// TopoRing is ring all-reduce: 2(m-1) phases in which each member
	// passes a 1/m segment to its successor (reduce-scatter, then
	// all-gather). Per-member traffic is independent of m.
	TopoRing Topology = "ring"
	// TopoTree is a binary-tree reduce then broadcast: 2·depth phases of
	// full-payload hops, the latency-optimal pattern for small payloads.
	TopoTree Topology = "tree"
	// TopoHier is the two-level hierarchy: ring all-reduce inside fixed
	// groups, tree reduce-broadcast across group leaders, then a binomial
	// broadcast back inside each group. GroupSize picks the group width
	// (default ceil(sqrt(m))).
	TopoHier Topology = "hier"
)

// Topologies lists the explicit collective topologies (not TopoDefault), in
// the order experiments sweep them.
func Topologies() []Topology {
	return []Topology{TopoAllToAll, TopoRing, TopoTree, TopoHier}
}

func (t Topology) valid() bool {
	switch t {
	case TopoDefault, TopoAllToAll, TopoRing, TopoTree, TopoHier:
		return true
	}
	return false
}

// ChurnEvent schedules one elastic-membership transition: at the start of
// Round, Worker joins (catching up from the newest CRC-valid snapshot) or
// leaves the run. A worker whose earliest event is a join starts the run
// absent. Config.Validate rejects out-of-range workers, duplicate events,
// and inconsistent sequences (joining while present, leaving while absent).
type ChurnEvent struct {
	Round  int
	Worker int
	Join   bool
}

// hop is one directed transfer inside a collective phase.
type hop struct {
	src, dst int
	bytes    int64
}

// degradeSalt offsets the phase sequence numbers of the all-to-all fallback
// walk, so its per-hop fault draws are independent of the failed primary
// walk's (otherwise the same dead links would kill the fallback too).
const degradeSalt = 1 << 12

func ceilDiv(a int64, b int) int64 {
	if b <= 0 {
		return a
	}
	return (a + int64(b) - 1) / int64(b)
}

// heapDepth is the depth of index i in a 0-based binary heap.
func heapDepth(i int) int { return bits.Len(uint(i+1)) - 1 }

// hierGroupSize resolves the intra-group width for TopoHier: the configured
// size clamped to the member count, defaulting to ceil(sqrt(m)) (minimum 2).
func hierGroupSize(groupSize, m int) int {
	gs := groupSize
	if gs < 2 {
		gs = int(math.Ceil(math.Sqrt(float64(m))))
		if gs < 2 {
			gs = 2
		}
	}
	if gs > m {
		gs = m
	}
	return gs
}

// phaseHops enumerates the collective's phases over the live members
// (ascending worker ids), calling visit once per phase with that phase's
// concurrent hops. seq numbers the phases so per-hop fault draws are unique
// across the round. The hops slice is reused between phases.
func phaseHops(kind Topology, members []int, payload int64, groupSize int, visit func(seq int, hops []hop)) {
	m := len(members)
	if m < 2 {
		return
	}
	seq := 0
	buf := make([]hop, 0, m)
	emit := func() {
		visit(seq, buf)
		seq++
		buf = buf[:0]
	}
	switch kind {
	case TopoAllToAll:
		// Phase p: member i exchanges the full payload with member i+p.
		for p := 1; p < m; p++ {
			for i := 0; i < m; i++ {
				buf = append(buf, hop{members[i], members[(i+p)%m], payload})
			}
			emit()
		}
	case TopoRing:
		// Reduce-scatter then all-gather: 2(m-1) phases, each member
		// passing a 1/m segment to its successor.
		seg := ceilDiv(payload, m)
		for s := 0; s < 2*(m-1); s++ {
			for i := 0; i < m; i++ {
				buf = append(buf, hop{members[i], members[(i+1)%m], seg})
			}
			emit()
		}
	case TopoTree:
		// Heap-indexed binary tree over the members array: reduce from the
		// deepest level up to the root, then broadcast back down.
		maxD := heapDepth(m - 1)
		for d := maxD; d >= 1; d-- {
			for i := 1; i < m; i++ {
				if heapDepth(i) == d {
					buf = append(buf, hop{members[i], members[(i-1)/2], payload})
				}
			}
			emit()
		}
		for d := 1; d <= maxD; d++ {
			for i := 1; i < m; i++ {
				if heapDepth(i) == d {
					buf = append(buf, hop{members[(i-1)/2], members[i], payload})
				}
			}
			emit()
		}
	case TopoHier:
		gs := hierGroupSize(groupSize, m)
		var groups [][]int
		for i := 0; i < m; i += gs {
			end := i + gs
			if end > m {
				end = m
			}
			groups = append(groups, members[i:end])
		}
		maxGs := gs
		// Intra-group ring all-reduce; groups run concurrently, phases
		// aligned across groups.
		for s := 0; s < 2*(maxGs-1); s++ {
			for _, g := range groups {
				if s >= 2*(len(g)-1) {
					continue
				}
				seg := ceilDiv(payload, len(g))
				for i := range g {
					buf = append(buf, hop{g[i], g[(i+1)%len(g)], seg})
				}
			}
			emit()
		}
		// Tree reduce-broadcast over group leaders.
		leaders := make([]int, len(groups))
		for i, g := range groups {
			leaders[i] = g[0]
		}
		k := len(leaders)
		if k >= 2 {
			maxD := heapDepth(k - 1)
			for d := maxD; d >= 1; d-- {
				for i := 1; i < k; i++ {
					if heapDepth(i) == d {
						buf = append(buf, hop{leaders[i], leaders[(i-1)/2], payload})
					}
				}
				emit()
			}
			for d := 1; d <= maxD; d++ {
				for i := 1; i < k; i++ {
					if heapDepth(i) == d {
						buf = append(buf, hop{leaders[(i-1)/2], leaders[i], payload})
					}
				}
				emit()
			}
		}
		// Binomial broadcast from each leader back into its group.
		for s := 0; 1<<s < maxGs; s++ {
			for _, g := range groups {
				lo, hi := 1<<s, 2<<s
				if hi > len(g) {
					hi = len(g)
				}
				for r := lo; r < hi; r++ {
					buf = append(buf, hop{g[r-1<<s], g[r], payload})
				}
			}
			emit()
		}
	}
}

// hop prices one topology hop: slow-link latency multiplication, per-attempt
// link-drop retries with exponential backoff, and — once the retry budget
// exhausts — a single healing reroute around the dead link (the ring skips
// to the next live peer, the tree re-parents under the grandparent),
// modelled as one relayed attempt at twice the wire time. Returns whether
// the payload ultimately got through and the simulated seconds spent.
func (t *transport) hop(src, dst int, bytes int64, round, seq int, stats *Stats) (bool, float64) {
	slow := t.inj.LinkSlow(src, dst, round)
	if slow > 1 {
		stats.LinkSlowHops++
		t.obs.linkSlowHops.Inc()
	}
	base := device.TransferTime(t.prof, t.prof, bytes) * slow
	var elapsed float64
	for attempt := 0; attempt < t.maxRetries; attempt++ {
		if attempt > 0 {
			stats.Retransmissions++
			t.obs.retrans.Inc()
			elapsed += t.backoffS * float64(int64(1)<<(attempt-1))
		}
		stats.BytesSent += bytes
		t.obs.bytesSent.Add(bytes)
		elapsed += base
		if t.inj.LinkDrops(src, dst, round, seq, attempt) {
			stats.LinkDropped++
			t.obs.linkDropped.Inc()
			continue
		}
		return true, elapsed
	}
	stats.BytesSent += 2 * bytes
	t.obs.bytesSent.Add(2 * bytes)
	elapsed += 2 * base
	if !t.inj.LinkDrops(src, dst, round, seq, t.maxRetries) {
		stats.TopoHeals++
		t.obs.topoHeals.Inc()
		return true, elapsed
	}
	stats.LinkDropped++
	t.obs.linkDropped.Inc()
	return false, elapsed
}

// walk prices one traversal of the topology's phases over the live members,
// returning the members whose contribution dead links lost plus the
// simulated seconds elapsed. Hops within a phase run concurrently (the
// phase costs its slowest hop); phases serialize.
func (t *transport) walk(kind Topology, live []int, payload int64, round, groupSize, salt int, stats *Stats) (map[int]bool, float64) {
	lost := make(map[int]bool)
	failed := make(map[int]int)
	var total float64
	phaseHops(kind, live, payload, groupSize, func(seq int, hops []hop) {
		var phaseS float64
		for _, h := range hops {
			ok, s := t.hop(h.src, h.dst, h.bytes, round, salt+seq, stats)
			if s > phaseS {
				phaseS = s
			}
			if ok {
				continue
			}
			if kind == TopoAllToAll {
				// Full mesh: one dead edge only loses one peer's copy; the
				// contribution is lost only when most peers never got it.
				failed[h.src]++
				if 2*failed[h.src] > len(live)-1 {
					lost[h.src] = true
				}
			} else {
				lost[h.src] = true
			}
		}
		total += phaseS
	})
	return lost, total
}

// exchange executes one collective reduce-broadcast of payload bytes over
// the topology spanning members (ascending worker ids). It prices every
// phase on the simulated clock, heals around dead links, excludes members a
// partition or unhealable link cut off, and — when healing would leave
// fewer than half the members contributing (the convergence invariant) —
// degrades the whole round to the all-to-all fallback. Returns the members
// whose contribution was excluded, the simulated seconds elapsed, and
// whether the round degraded.
func (t *transport) exchange(kind Topology, members []int, payload int64, round, groupSize int, stats *Stats) (excluded map[int]bool, elapsed float64, degraded bool) {
	excluded = make(map[int]bool)
	if len(members) < 2 {
		return excluded, 0, false
	}
	live := members
	var cut []int
	if start, ok := t.inj.PartitionAt(round); ok {
		var side0, side1 []int
		for _, w := range members {
			if t.inj.PartitionSide(w, start) == 0 {
				side0 = append(side0, w)
			} else {
				side1 = append(side1, w)
			}
		}
		maj, min := side0, side1
		if len(side1) > len(side0) {
			maj, min = side1, side0
		}
		if len(min) > 0 {
			live, cut = maj, min
			stats.PartitionedRounds++
			t.obs.partRounds.Inc()
			// The topology heals around the unreachable side: the ring
			// skips to the next live peer, the tree re-parents orphaned
			// subtrees onto the majority. All-to-all has no rerouting to
			// do — the cut members are simply unreachable there too.
			if kind != TopoAllToAll {
				stats.TopoHeals += len(min)
				t.obs.topoHeals.Add(int64(len(min)))
			}
			for _, w := range min {
				excluded[w] = true
			}
		}
	}
	if len(live) >= 2 {
		lost, s := t.walk(kind, live, payload, round, groupSize, 0, stats)
		elapsed += s
		for w := range lost {
			excluded[w] = true
		}
		// Convergence invariant: at least half the members must contribute
		// to the aggregate. When healing could not preserve that quorum,
		// the round re-runs over the maximally-connected all-to-all mesh,
		// which tolerates individual dead links.
		if kind != TopoAllToAll && 2*(len(members)-len(excluded)) < len(members) {
			degraded = true
			stats.TopoDegraded++
			t.obs.topoDegraded.Inc()
			lost2, s2 := t.walk(TopoAllToAll, live, payload, round, groupSize, degradeSalt, stats)
			elapsed += s2
			excluded = make(map[int]bool)
			for _, w := range cut {
				excluded[w] = true
			}
			for w := range lost2 {
				excluded[w] = true
			}
		}
	}
	stats.LinkExcluded += len(excluded)
	t.obs.linkExcluded.Add(int64(len(excluded)))
	return excluded, elapsed, degraded
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
