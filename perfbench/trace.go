package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dlsys/internal/sim"
)

// The traced run drives a day with sim.Kernel.Step instead of Run and
// charges each step's host time to the actor whose Fired count went up.
// It is a wall-time attribution per sim actor measured from outside the
// program: the kernel and the subsystems are unchanged.

// unattributed collects steps no registered actor claimed: an event
// scheduled on the kernel directly rather than through an actor.
const unattributed = "(unattributed)"

// maxSamples caps the per-step durations kept for quantiles, so a traced
// run's memory stays bounded on million-event days.
const maxSamples = 4 << 20

type actorAcc struct {
	a       *sim.Actor
	last    int
	count   int
	self    time.Duration
	samples []uint32 // per-step host ns
}

// stepTrace is what one traced day measured.
type stepTrace struct {
	wall       time.Duration
	steps      int
	pendingMax int
	actors     map[string]*actorAcc
	slowest    []slowStep // the slowest handlers, longest first
}

type slowStep struct {
	actor  string
	day    int // which traced day
	step   int
	stampS float64 // simulated clock when the handler ran
	at     time.Time
	d      time.Duration
}

const keepSlowest = 16

// runTraced drains the kernel one step at a time. The samples of every
// traced day accumulate in into, up to maxSamples per actor; day numbers
// the traced days for the slowest-handler records.
func runTraced(k *sim.Kernel, day int, into *stepTrace) {
	if into.actors == nil {
		into.actors = map[string]*actorAcc{}
	}
	// Every subsystem registers its actors before its first event, so the
	// actors present now are all the day has.
	var accs []*actorAcc
	for _, name := range k.Actors() {
		acc, ok := into.actors[name]
		if !ok {
			acc = &actorAcc{}
			into.actors[name] = acc
		}
		acc.a, acc.last = k.Actor(name), 0
		accs = append(accs, acc)
	}
	start := time.Now()
	for step := 0; ; step++ {
		if p := k.Pending(); p > into.pendingMax {
			into.pendingMax = p
		}
		t0 := time.Now()
		ok := k.Step()
		d := time.Since(t0)
		if !ok {
			break
		}
		acc := fired(accs)
		name := ""
		if acc == nil {
			u, ok := into.actors[unattributed]
			if !ok {
				u = &actorAcc{}
				into.actors[unattributed] = u
			}
			acc = u
			name = unattributed
		}
		acc.count++
		acc.self += d
		if len(acc.samples) < maxSamples {
			acc.samples = append(acc.samples, uint32(min(d.Nanoseconds(), 1<<32-1)))
		}
		into.steps++
		if len(into.slowest) < keepSlowest || d > into.slowest[len(into.slowest)-1].d {
			if name == "" {
				name = acc.a.Name()
			}
			into.slowest = insertSlow(into.slowest, slowStep{
				actor: name, day: day, step: step, stampS: k.Now(), at: t0, d: d,
			})
		}
	}
	into.wall += time.Since(start)
}

// fired returns the actor whose fired count moved during the last step.
func fired(accs []*actorAcc) *actorAcc {
	for _, acc := range accs {
		if f := acc.a.Fired(); f != acc.last {
			acc.last = f
			return acc
		}
	}
	return nil
}

func insertSlow(s []slowStep, x slowStep) []slowStep {
	i := sort.Search(len(s), func(i int) bool { return s[i].d < x.d })
	s = append(s, slowStep{})
	copy(s[i+1:], s[i:])
	s[i] = x
	if len(s) > keepSlowest {
		s = s[:keepSlowest]
	}
	return s
}

// pctl estimates the q-quantile of host step times in ns as the mean of
// the samples ranked within half a percentile of q, so the clock's
// nanosecond granularity does not quantize the estimate.
func pctl(samples []uint32, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]uint32(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	lo := int((q - 0.005) * float64(len(s)))
	hi := int((q + 0.005) * float64(len(s)))
	lo = max(0, min(lo, len(s)-1))
	hi = max(lo+1, min(hi, len(s)))
	var sum float64
	for _, v := range s[lo:hi] {
		sum += float64(v)
	}
	return sum / float64(hi-lo)
}

// actorRow is one line of the per-actor table.
type actorRow struct {
	name         string
	count        int
	selfS, share float64
	p50ns, p99ns float64
}

// table summarises the traced days per actor, largest share first. The
// samples of all actors together give the kernel's step quantiles.
func (t *stepTrace) table() (rows []actorRow, all []uint32) {
	var total time.Duration
	for _, acc := range t.actors {
		total += acc.self
	}
	for name, acc := range t.actors {
		if acc.count == 0 {
			continue
		}
		rows = append(rows, actorRow{
			name: name, count: acc.count, selfS: acc.self.Seconds(),
			share: acc.self.Seconds() / total.Seconds(),
			p50ns: pctl(acc.samples, 0.50), p99ns: pctl(acc.samples, 0.99),
		})
		all = append(all, acc.samples...)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].selfS > rows[j].selfS })
	return rows, all
}

// span is one record of the benchmark's own trace: set-up calls, the
// days, per-actor aggregates and the slowest handlers. Times are host
// nanoseconds since the benchmark started.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// spanLog keeps spans in memory until the benchmark ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) add(parent int, name string, start time.Time, d time.Duration, attrs map[string]string) int {
	s := start.Sub(l.t0).Nanoseconds()
	l.spans = append(l.spans, span{
		ID: len(l.spans), Parent: parent, Name: name, Start: s, End: s + d.Nanoseconds(), Attrs: attrs,
	})
	return len(l.spans) - 1
}

// addSetup records one set-up as a parent span with a child per call.
func (l *spanLog) addSetup(parent int, start time.Time, rec *setupRec) {
	var total time.Duration
	for _, c := range rec.calls {
		total += c.d
	}
	id := l.add(parent, "setup", start, total, nil)
	at := start
	for _, c := range rec.calls {
		l.add(id, "setup."+c.name, at, c.d, nil)
		at = at.Add(c.d)
	}
}

// addTrace records the traced days' per-actor aggregates and slowest
// handlers under one parent span covering all of them.
func (l *spanLog) addTrace(parent int, start time.Time, tr *stepTrace) {
	id := l.add(parent, "traced-days", start, tr.wall, map[string]string{"steps": fmt.Sprint(tr.steps)})
	rows, _ := tr.table()
	for _, r := range rows {
		l.add(id, "actor."+r.name, start, time.Duration(r.selfS*1e9), map[string]string{
			"count": fmt.Sprint(r.count), "share": fmt.Sprintf("%.6f", r.share),
			"p50_ns": fmt.Sprintf("%.0f", r.p50ns), "p99_ns": fmt.Sprintf("%.0f", r.p99ns),
		})
	}
	for _, s := range tr.slowest {
		l.add(id, "handler."+s.actor, s.at, s.d, map[string]string{
			"day": fmt.Sprint(s.day), "step": fmt.Sprint(s.step), "sim_s": fmt.Sprintf("%.9g", s.stampS),
		})
	}
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
