// Package sim is the deterministic discrete-event simulation kernel that
// the distributed-training and serving simulators share. The tutorial's
// systems half argues that reliability is a property of the composed stack,
// not of individually hardened components; composing those components
// requires them to agree on what time it is. The kernel provides exactly
// that: one virtual clock, a priority-queue event loop with stable
// tie-breaking, and named actors, so that training rounds, request
// arrivals, and scheduled fault windows interleave on a single timeline and
// two runs of the same scenario are bit-identical.
//
// Determinism contract:
//
//   - Events are ordered by (time, sequence number). The sequence number is
//     assigned at scheduling time, so two events scheduled for the same
//     instant always execute in the order they were scheduled, regardless
//     of map iteration or goroutine interleavings upstream.
//   - Handlers run on the caller's goroutine; the kernel itself spawns
//     nothing and holds no locks. Concurrency inside a handler (e.g. the
//     parallel gradient computation in internal/distributed) is the
//     handler's business and must not touch the kernel.
//   - Advance models work performed *inside* an event (a coarse-grained
//     style of DES): a handler advances the clock by the simulated duration
//     of its computation, and later events are popped at
//     max(clock, event time), i.e. an event whose scheduled instant has
//     been overtaken still runs, stamped with its own scheduled time.
//
// The kernel log (actor, stamp, seq of every executed event) feeds a
// replay fingerprint, giving composed experiments such as X10 a fourth
// fingerprint to cross-check beyond metrics, traces, and ledgers.
package sim

import (
	"fmt"
	"math"
)

// Clock is the read-only view of simulated time that components take as a
// dependency. *Kernel satisfies it; so does any fixed stand-in in tests.
type Clock interface {
	// Now returns the current simulated time in seconds.
	Now() float64
}

// EventID names one scheduled event so its scheduler can Cancel it. It is
// a value: the slot of the event's record in the kernel's arena plus the
// generation the slot had when the event was scheduled. The zero EventID
// cancels nothing.
type EventID struct {
	k    *Kernel
	slot int32
	gen  uint32
}

// Cancel marks the event so it is skipped when popped. Cancelling an
// already-executed event is a no-op, even after its slot has been reused
// by a later event: the slot's generation no longer matches. Cancelled
// events still consume their queue slot until popped but do not appear in
// the execution log or fingerprint.
func (id EventID) Cancel() {
	if id.k == nil {
		return
	}
	if ev := &id.k.events[id.slot]; ev.gen == id.gen {
		ev.canceled = true
	}
}

// event is one scheduled occurrence's record in the kernel's arena.
// Exactly one of fn, argFn and every is set. The (time, seq) key lives in
// the heap node, not here.
type event struct {
	actor    *Actor // nil when no actor of that name existed at scheduling
	name     string
	fn       func(stamp float64)
	argFn    func(stamp float64, arg int) // handler bound once, plus a payload
	arg      int
	every    func(now float64) bool // periodic callback
	period   float64
	gen      uint32 // bumped each time the slot is freed
	canceled bool
}

// node is one heap entry: the ordering key plus the event's arena slot.
type node struct {
	t    float64
	seq  uint64
	slot int32
}

func (a node) less(b node) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// Kernel is the discrete-event loop: a virtual clock plus a priority queue
// of pending events. Not safe for concurrent use — drive it from one
// goroutine (handlers may fan out internally as long as they rejoin before
// returning).
//
// The queue is a 4-ary min-heap of (time, seq, slot) nodes over an arena
// of event records recycled through a free list, so scheduling and
// executing an event allocate nothing once the arena has grown to the
// run's peak pending count. Sequence numbers are unique, so the pop order
// is the total (time, seq) order whatever the heap's shape.
type Kernel struct {
	now       float64
	seq       uint64
	heap      []node
	events    []event
	free      []int32
	processed int
	actors    map[string]*Actor
	log       FNV
}

// FNV is an incremental FNV-1a 64-bit hash for replay fingerprints: the
// kernel's execution log and the serving fleet's outcome ledger. It folds
// fixed-width values without allocating, so a fingerprint costs O(1)
// memory at any run length. The zero value is ready to use, and its
// Sum64 equals hash/fnv.New64a over the same bytes.
type FNV struct {
	h       uint64
	started bool
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (f *FNV) init() {
	if !f.started {
		f.h = fnvOffset
		f.started = true
	}
}

// AddWord folds one 64-bit value into the hash byte by byte,
// little-endian. Splitting into bytes keeps the stream identical in
// spirit to a textual log (every bit of every field reaches the FNV
// state) while avoiding the fmt round-trip that dominated Step at
// million-event scale.
func (f *FNV) AddWord(v uint64) {
	f.init()
	for i := 0; i < 8; i++ {
		f.h ^= v & 0xff
		f.h *= fnvPrime
		v >>= 8
	}
}

// AddString folds the bytes of s into the hash.
func (f *FNV) AddString(s string) {
	f.init()
	for i := 0; i < len(s); i++ {
		f.h ^= uint64(s[i])
		f.h *= fnvPrime
	}
}

// Sum64 returns the hash of everything folded so far.
func (f *FNV) Sum64() uint64 {
	f.init()
	return f.h
}

// New builds an empty kernel with the clock at zero.
func New() *Kernel {
	return &Kernel{
		// A first block of queue and arena capacity: a run's opening
		// events then take one allocation each instead of a doubling
		// series through several size classes.
		heap:   make([]node, 0, initialEvents),
		events: make([]event, 0, initialEvents),
		actors: map[string]*Actor{},
	}
}

// initialEvents is New's queue and arena capacity.
const initialEvents = 16

// Now returns the current simulated time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// Processed returns how many events have executed so far (cancelled events
// excluded).
func (k *Kernel) Processed() int { return k.processed }

// Pending returns how many events are queued (including cancelled ones not
// yet popped).
func (k *Kernel) Pending() int { return len(k.heap) }

// At schedules fn to run at absolute time t, stamped with t. The time may
// lie behind the current clock: with coarse-grained handlers that Advance
// the clock past other components' scheduled instants, an overtaken event
// simply becomes the next to pop and runs with its own (true) stamp — the
// clock itself never rewinds. Fine-grained event chains (request arrivals)
// therefore keep exact timestamps when composed with coarse-grained ones
// (training rounds).
func (k *Kernel) At(t float64, actor string, fn func(stamp float64)) EventID {
	id, ev := k.schedule(t, k.actors[actor], actor)
	ev.fn = fn
	return id
}

// After schedules fn to run d seconds from the current clock. Negative d
// clamps to zero.
func (k *Kernel) After(d float64, actor string, fn func(stamp float64)) EventID {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, actor, fn)
}

// Every schedules fn to first run at start and then every period seconds,
// for as long as fn returns true. Each firing is stamped with its scheduled
// instant; the next firing is scheduled relative to that stamp (fixed-rate,
// not fixed-delay), so a handler that advances the clock does not skew the
// cadence. A non-positive period panics: it would loop forever at one
// instant. The returned EventID cancels every later firing.
func (k *Kernel) Every(start, period float64, actor string, fn func(now float64) bool) EventID {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every(%q) with non-positive period %g", actor, period))
	}
	id, ev := k.schedule(start, k.actors[actor], actor)
	ev.every, ev.period = fn, period
	return id
}

// schedule takes an arena slot (a freed one first), pushes its heap node
// at (t, next seq) and returns the new event's id and record for the
// caller to fill in. The record pointer is valid until the next schedule.
func (k *Kernel) schedule(t float64, a *Actor, name string) (EventID, *event) {
	var slot int32
	if n := len(k.free); n > 0 {
		slot = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		slot = int32(len(k.events))
		k.events = append(k.events, event{})
	}
	ev := &k.events[slot]
	ev.actor, ev.name = a, name
	k.push(node{t: t, seq: k.seq, slot: slot})
	k.seq++
	return EventID{k: k, slot: slot, gen: ev.gen}, ev
}

// release returns a slot to the free list, dropping the record's
// references and bumping its generation so stale EventIDs cancel nothing.
func (k *Kernel) release(slot int32) {
	ev := &k.events[slot]
	*ev = event{gen: ev.gen + 1}
	k.free = append(k.free, slot)
}

// push adds n to the 4-ary heap (children of i at 4i+1..4i+4).
func (k *Kernel) push(n node) {
	k.heap = append(k.heap, n)
	h := k.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !n.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = n
}

// pop removes and returns the heap minimum; the heap must be non-empty.
func (k *Kernel) pop() node {
	h := k.heap
	top := h[0]
	last := len(h) - 1
	x := h[last]
	h = h[:last]
	k.heap = h
	if last == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= last {
			break
		}
		m := c
		end := c + 4
		if end > last {
			end = last
		}
		for j := c + 1; j < end; j++ {
			if h[j].less(h[m]) {
				m = j
			}
		}
		if !h[m].less(x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
	return top
}

// Advance moves the clock forward by d seconds, modelling work performed
// inside the currently running event (or between events, for standalone
// use). Negative d is clamped to zero — simulated time never rewinds.
func (k *Kernel) Advance(d float64) {
	if d > 0 {
		k.now += d
	}
}

// AdvanceTo moves the clock to absolute time t if t is ahead of it.
func (k *Kernel) AdvanceTo(t float64) {
	if t > k.now {
		k.now = t
	}
}

// Step pops and executes the earliest pending event, returning false when
// the queue is empty. The clock is set to max(now, event time) before the
// handler runs; the handler receives the event's own scheduled stamp.
func (k *Kernel) Step() bool {
	for len(k.heap) > 0 {
		n := k.pop()
		ev := &k.events[n.slot]
		if ev.canceled {
			k.release(n.slot)
			continue
		}
		if n.t > k.now {
			k.now = n.t
		}
		k.processed++
		k.log.AddString(ev.name)
		k.log.AddWord(math.Float64bits(n.t))
		k.log.AddWord(n.seq)
		a := ev.actor
		if a == nil {
			a = k.actors[ev.name] // registered after the event was scheduled
		}
		if a != nil {
			a.fired++
		}
		if ev.every != nil {
			// The slot stays live across the handler so the caller's
			// EventID keeps working for Cancel across reschedules. The
			// next firing is start+n*period even if the clock has moved
			// past it — fixed-rate, catching up rather than skewing.
			if ev.every(n.t) && !k.events[n.slot].canceled {
				k.push(node{t: n.t + k.events[n.slot].period, seq: k.seq, slot: n.slot})
				k.seq++
			} else {
				k.release(n.slot)
			}
			return true
		}
		fn, argFn, arg := ev.fn, ev.argFn, ev.arg
		k.release(n.slot)
		if argFn != nil {
			argFn(n.t, arg)
		} else {
			fn(n.t)
		}
		return true
	}
	return false
}

// Run executes events until the queue drains, returning how many ran.
func (k *Kernel) Run() int {
	n := 0
	for k.Step() {
		n++
	}
	return n
}

// RunUntil executes events whose scheduled time is <= t, then advances the
// clock to t (if ahead) and returns how many events ran. Events scheduled
// beyond t stay queued.
func (k *Kernel) RunUntil(t float64) int {
	n := 0
	for len(k.heap) > 0 {
		top := k.heap[0]
		if k.events[top.slot].canceled {
			k.pop()
			k.release(top.slot)
			continue
		}
		if top.t > t {
			break
		}
		if k.Step() {
			n++
		}
	}
	k.AdvanceTo(t)
	return n
}

// Fingerprint returns the FNV-1a hash of the execution log so far: for
// every executed event, its actor name, scheduled stamp, and sequence
// number. Two runs of the same scenario must produce identical
// fingerprints; any divergence in ordering, timing, or event population
// shows up here even if downstream metrics happen to agree.
func (k *Kernel) Fingerprint() uint64 { return k.log.Sum64() }
