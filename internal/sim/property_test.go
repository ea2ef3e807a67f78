package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The property test drives random At/After/Every/AtArg/Cancel/RunUntil/
// Step sequences through the kernel and through refKernel, a reference
// model that keeps its pending events in a slice sorted by (time, seq),
// and checks that both execute the same events in the same order with the
// same stamps, clocks, Fired counts, pending counts and fingerprint.

// refEvent is one pending event of the reference model.
type refEvent struct {
	t        float64
	seq      uint64
	id       int
	name     string
	period   float64 // > 0 for periodic events
	canceled bool
}

// refKernel is the sorted-slice reference model of the kernel.
type refKernel struct {
	now       float64
	seq       uint64
	pending   []*refEvent // sorted by (t, seq)
	live      map[int]*refEvent
	processed int
	fired     map[string]int
	actors    map[string]bool
	log       FNV
}

func newRefKernel() *refKernel {
	return &refKernel{live: map[int]*refEvent{}, fired: map[string]int{}, actors: map[string]bool{}}
}

func (m *refKernel) schedule(t float64, id int, name string, period float64) {
	ev := &refEvent{t: t, seq: m.seq, id: id, name: name, period: period}
	m.seq++
	i := sort.Search(len(m.pending), func(i int) bool {
		p := m.pending[i]
		return p.t > t || (p.t == t && p.seq > ev.seq)
	})
	m.pending = append(m.pending, nil)
	copy(m.pending[i+1:], m.pending[i:])
	m.pending[i] = ev
	m.live[id] = ev
}

func (m *refKernel) cancel(id int) {
	if ev, ok := m.live[id]; ok {
		ev.canceled = true
	}
}

// step mirrors Kernel.Step; run is the scenario's handler for the event.
func (m *refKernel) step(run func(ev *refEvent) bool) bool {
	for len(m.pending) > 0 {
		ev := m.pending[0]
		m.pending = m.pending[1:]
		if ev.canceled {
			delete(m.live, ev.id)
			continue
		}
		if ev.t > m.now {
			m.now = ev.t
		}
		m.processed++
		m.log.AddString(ev.name)
		m.log.AddWord(math.Float64bits(ev.t))
		m.log.AddWord(ev.seq)
		if m.actors[ev.name] {
			m.fired[ev.name]++
		}
		if ev.period > 0 {
			if run(ev) && !ev.canceled {
				m.schedule(ev.t+ev.period, ev.id, ev.name, ev.period)
			} else {
				delete(m.live, ev.id)
			}
			return true
		}
		delete(m.live, ev.id)
		run(ev)
		return true
	}
	return false
}

func (m *refKernel) runUntil(t float64, run func(ev *refEvent) bool) {
	for len(m.pending) > 0 {
		if m.pending[0].canceled {
			delete(m.live, m.pending[0].id)
			m.pending = m.pending[1:]
			continue
		}
		if m.pending[0].t > t {
			break
		}
		m.step(run)
	}
	if t > m.now {
		m.now = t
	}
}

// firing is one executed handler call: which event, at which stamp.
type firing struct {
	id    int
	stamp float64
}

// propScenario replays one random op sequence on the kernel and on the
// model. Handler behaviour is a pure function of the event id, and each
// side numbers the children its handlers spawn with its own counter, so
// the two sides stay in step exactly as long as they execute the same
// events in the same order.
type propScenario struct {
	k            *Kernel
	m            *refKernel
	ids          map[int]EventID
	kNext, mNext int
	kLog, mLog   []firing
	names        []string
	kArg         func(stamp float64, arg int)
}

// Deterministic per-id behaviour: every third one-shot spawns a child,
// even ids advance the clock, every eleventh cancels the id two below it,
// periodic events fire id%4+1 times and some cancel themselves from their
// own handler at the second firing.
func spawns(id int) bool                    { return id%3 == 0 }
func childDelay(id int) float64             { return float64(id%7) * 0.25 }
func advanceBy(id int) float64              { return float64(id%5) * 0.1 * float64(1-id%2) }
func cancelsOther(id int) bool              { return id%11 == 0 }
func periodicLimit(id int) int              { return id%4 + 1 }
func cancelsSelf(id, firings int) bool      { return id%10 == 3 && firings == 2 }
func nameFor(names []string, id int) string { return names[id%len(names)] }

func countFirings(log []firing, id int) int {
	n := 0
	for _, f := range log {
		if f.id == id {
			n++
		}
	}
	return n
}

// kHandle is the kernel-side handler of one-shot id.
func (s *propScenario) kHandle(id int, stamp float64) {
	s.kLog = append(s.kLog, firing{id, stamp})
	s.k.Advance(advanceBy(id))
	if cancelsOther(id) {
		s.ids[id-2].Cancel()
	}
	if spawns(id) {
		s.kNext++
		s.kAt(s.kNext, stamp+childDelay(id))
	}
}

// kAt schedules one-shot id on the kernel at t, rotating through At,
// AtArg (registered actors only: Actor would register the name) and
// After (relative to the clock, which clamps a past t to now).
func (s *propScenario) kAt(id int, t float64) {
	name := nameFor(s.names, id)
	switch {
	case id%3 == 1 && s.m.actors[name]:
		s.ids[id] = s.k.Actor(name).AtArg(t, s.kArg, id)
	case id%3 == 2:
		s.ids[id] = s.k.After(t-s.k.Now(), name, func(stamp float64) { s.kHandle(id, stamp) })
	default:
		s.ids[id] = s.k.At(t, name, func(stamp float64) { s.kHandle(id, stamp) })
	}
}

// kEvery schedules periodic id on the kernel.
func (s *propScenario) kEvery(id int, start, period float64) {
	s.ids[id] = s.k.Every(start, period, nameFor(s.names, id), func(now float64) bool {
		s.kLog = append(s.kLog, firing{id, now})
		n := countFirings(s.kLog, id)
		if cancelsSelf(id, n) {
			s.ids[id].Cancel()
		}
		return n < periodicLimit(id)
	})
}

// mAt is kAt on the model, with After's clamp spelled out.
func (s *propScenario) mAt(id int, t float64) {
	if id%3 == 2 {
		d := t - s.m.now
		if d < 0 {
			d = 0
		}
		t = s.m.now + d
	}
	s.m.schedule(t, id, nameFor(s.names, id), 0)
}

// mRun is the model-side handler; it returns the periodic continue flag.
func (s *propScenario) mRun(ev *refEvent) bool {
	s.mLog = append(s.mLog, firing{ev.id, ev.t})
	if ev.period > 0 {
		n := countFirings(s.mLog, ev.id)
		if cancelsSelf(ev.id, n) {
			s.m.cancel(ev.id)
		}
		return n < periodicLimit(ev.id)
	}
	s.m.now += advanceBy(ev.id)
	if cancelsOther(ev.id) {
		s.m.cancel(ev.id - 2)
	}
	if spawns(ev.id) {
		s.mNext++
		s.mAt(s.mNext, ev.t+childDelay(ev.id))
	}
	return false
}

func TestKernelMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		runPropScenario(t, seed)
	}
}

func runPropScenario(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	s := &propScenario{
		k:     New(),
		m:     newRefKernel(),
		ids:   map[int]EventID{},
		names: []string{"a", "b", "c", "loose"},
	}
	s.kArg = func(stamp float64, id int) { s.kHandle(id, stamp) }
	// "loose" is scheduled by name without an Actor until it registers
	// part-way through, exercising both Fired paths.
	for _, n := range s.names[:3] {
		s.k.Actor(n)
		s.m.actors[n] = true
	}
	check := func(op int) {
		t.Helper()
		if s.kNext != s.mNext || s.k.Now() != s.m.now || s.k.Processed() != s.m.processed || s.k.Pending() != len(s.m.pending) {
			t.Fatalf("seed %d after op %d: kernel ids=%d now=%g processed=%d pending=%d, model ids=%d now=%g processed=%d pending=%d",
				seed, op, s.kNext, s.k.Now(), s.k.Processed(), s.k.Pending(), s.mNext, s.m.now, s.m.processed, len(s.m.pending))
		}
	}
	for op := 0; op < 300; op++ {
		switch r := rng.Intn(20); {
		case r < 7: // one-shot, sometimes in the past
			at := s.k.Now() + rng.Float64()*5 - 0.5
			s.kNext++
			s.kAt(s.kNext, at)
			s.mNext++
			s.mAt(s.mNext, at)
		case r < 9: // periodic
			start, period := s.k.Now()+rng.Float64()*3, 0.5+rng.Float64()
			s.kNext++
			s.kEvery(s.kNext, start, period)
			s.mNext++
			s.m.schedule(start, s.mNext, nameFor(s.names, s.mNext), period)
		case r < 12: // cancel any id ever issued, live or not
			if s.kNext > 0 {
				id := 1 + rng.Intn(s.kNext)
				s.ids[id].Cancel()
				s.m.cancel(id)
			}
		case r < 16:
			if s.k.Step() != s.m.step(s.mRun) {
				t.Fatalf("seed %d: Step disagreed on whether the queue was empty", seed)
			}
		case r < 19:
			until := s.k.Now() + rng.Float64()*4
			s.k.RunUntil(until)
			s.m.runUntil(until, s.mRun)
		default:
			if !s.m.actors["loose"] {
				s.k.Actor("loose")
				s.m.actors["loose"] = true
			}
		}
		check(op)
	}
	s.k.Run()
	for s.m.step(s.mRun) {
	}
	check(-1)
	if len(s.kLog) != len(s.mLog) {
		t.Fatalf("seed %d: kernel ran %d handlers, model %d", seed, len(s.kLog), len(s.mLog))
	}
	for i := range s.kLog {
		if s.kLog[i] != s.mLog[i] {
			t.Fatalf("seed %d: firing %d kernel %+v, model %+v", seed, i, s.kLog[i], s.mLog[i])
		}
	}
	for _, n := range s.k.Actors() {
		if got, want := s.k.Actor(n).Fired(), s.m.fired[n]; got != want {
			t.Fatalf("seed %d: actor %s fired %d, model %d", seed, n, got, want)
		}
	}
	if s.k.Fingerprint() != s.m.log.Sum64() {
		t.Fatalf("seed %d: fingerprint %x, model %x", seed, s.k.Fingerprint(), s.m.log.Sum64())
	}
}

// TestStaleEventIDCancelIsNoOp pins the generation check: once an event
// has run, its slot is reused by the next scheduled event, and cancelling
// the old id must not touch the new occupant.
func TestStaleEventIDCancelIsNoOp(t *testing.T) {
	k := New()
	a := k.Actor("a")
	first := a.At(1, func(float64) {})
	k.Run()
	ran := false
	second := a.At(2, func(float64) { ran = true })
	if second.slot != first.slot {
		t.Fatalf("second event took slot %d, want the freed slot %d", second.slot, first.slot)
	}
	first.Cancel()
	k.Run()
	if !ran {
		t.Fatal("cancelling a stale EventID cancelled the event that reused its slot")
	}
	var zero EventID
	zero.Cancel() // the zero id cancels nothing and must not panic
}
