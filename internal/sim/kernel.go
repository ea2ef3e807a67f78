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
	"container/heap"
	"fmt"
	"math"
)

// Clock is the read-only view of simulated time that components take as a
// dependency. *Kernel satisfies it; so does any fixed stand-in in tests.
type Clock interface {
	// Now returns the current simulated time in seconds.
	Now() float64
}

// Event is one scheduled occurrence. The zero value is meaningless; events
// are created by the Kernel's scheduling methods and retained by callers
// only to Cancel them.
type Event struct {
	t        float64
	seq      uint64
	actor    string
	fn       func(stamp float64)
	every    func(now float64) bool // periodic callback, nil for one-shots
	period   float64
	canceled bool
}

// Cancel marks the event so it is skipped when popped. Cancelling an
// already-executed or nil event is a no-op. Cancelled events still consume
// their queue slot but do not appear in the execution log or fingerprint.
func (e *Event) Cancel() {
	if e != nil {
		e.canceled = true
	}
}

// eventQueue is a min-heap on (t, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*Event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// Kernel is the discrete-event loop: a virtual clock plus a priority queue
// of pending events. Not safe for concurrent use — drive it from one
// goroutine (handlers may fan out internally as long as they rejoin before
// returning).
type Kernel struct {
	now       float64
	seq       uint64
	queue     eventQueue
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
	return &Kernel{actors: map[string]*Actor{}}
}

// Now returns the current simulated time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// Processed returns how many events have executed so far (cancelled events
// excluded).
func (k *Kernel) Processed() int { return k.processed }

// Pending returns how many events are queued (including cancelled ones not
// yet popped).
func (k *Kernel) Pending() int { return len(k.queue) }

// At schedules fn to run at absolute time t, stamped with t. The time may
// lie behind the current clock: with coarse-grained handlers that Advance
// the clock past other components' scheduled instants, an overtaken event
// simply becomes the next to pop and runs with its own (true) stamp — the
// clock itself never rewinds. Fine-grained event chains (request arrivals)
// therefore keep exact timestamps when composed with coarse-grained ones
// (training rounds).
func (k *Kernel) At(t float64, actor string, fn func(stamp float64)) *Event {
	ev := &Event{t: t, seq: k.seq, actor: actor, fn: fn}
	k.seq++
	heap.Push(&k.queue, ev)
	return ev
}

// After schedules fn to run d seconds from the current clock. Negative d
// clamps to zero.
func (k *Kernel) After(d float64, actor string, fn func(stamp float64)) *Event {
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
// instant.
func (k *Kernel) Every(start, period float64, actor string, fn func(now float64) bool) *Event {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every(%q) with non-positive period %g", actor, period))
	}
	ev := &Event{t: start, seq: k.seq, actor: actor, every: fn, period: period}
	k.seq++
	heap.Push(&k.queue, ev)
	return ev
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
	for len(k.queue) > 0 {
		ev := heap.Pop(&k.queue).(*Event)
		if ev.canceled {
			continue
		}
		if ev.t > k.now {
			k.now = ev.t
		}
		k.processed++
		k.log.AddString(ev.actor)
		k.log.AddWord(math.Float64bits(ev.t))
		k.log.AddWord(ev.seq)
		if a, ok := k.actors[ev.actor]; ok {
			a.fired++
		}
		if ev.every != nil {
			if ev.every(ev.t) && !ev.canceled {
				// Reuse the same Event so the caller's handle keeps
				// working for Cancel across reschedules. The next firing
				// is start+n*period even if the clock has moved past it —
				// fixed-rate, catching up rather than skewing.
				ev.t += ev.period
				ev.seq = k.seq
				k.seq++
				heap.Push(&k.queue, ev)
			}
			return true
		}
		ev.fn(ev.t)
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
	for len(k.queue) > 0 {
		// Peek: heap minimum is index 0.
		if k.queue[0].canceled {
			heap.Pop(&k.queue)
			continue
		}
		if k.queue[0].t > t {
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
