package sim

import "sort"

// Actor is a named participant in the simulation — "trainer", "serve",
// "chaos". Actors exist so that composed experiments can attribute every
// event on the shared timeline to the subsystem that scheduled it: the
// kernel log (and hence the replay fingerprint) records the actor name on
// each execution, and per-actor fired counts let invariant checks assert
// that, say, the fault scheduler actually drove the windows it declared.
type Actor struct {
	k     *Kernel
	name  string
	fired int
}

// Actor returns the named actor, creating it on first use. Actor identity
// is per-kernel; the same name always returns the same *Actor.
func (k *Kernel) Actor(name string) *Actor {
	if a, ok := k.actors[name]; ok {
		return a
	}
	a := &Actor{k: k, name: name}
	k.actors[name] = a
	return a
}

// Actors returns the registered actor names in sorted order.
func (k *Kernel) Actors() []string {
	names := make([]string, 0, len(k.actors))
	for n := range k.actors {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Name returns the actor's name.
func (a *Actor) Name() string { return a.name }

// Fired returns how many of this actor's events have executed.
func (a *Actor) Fired() int { return a.fired }

// At schedules fn at absolute time t under this actor's name.
func (a *Actor) At(t float64, fn func(stamp float64)) EventID {
	id, ev := a.k.schedule(t, a, a.name)
	ev.fn = fn
	return id
}

// AtArg schedules fn(stamp, arg) at absolute time t under this actor's
// name. It is the allocation-free form of At for hot event chains: fn is a
// handler the actor binds once (a method value kept in a field) and arg a
// small payload such as a tenant, replica or request-slot index, so no
// closure is built per event.
func (a *Actor) AtArg(t float64, fn func(stamp float64, arg int), arg int) EventID {
	id, ev := a.k.schedule(t, a, a.name)
	ev.argFn, ev.arg = fn, arg
	return id
}

// After schedules fn d seconds from now under this actor's name.
func (a *Actor) After(d float64, fn func(stamp float64)) EventID {
	return a.k.After(d, a.name, fn)
}

// Every schedules a periodic event under this actor's name; see
// Kernel.Every for the cadence and termination contract.
func (a *Actor) Every(start, period float64, fn func(now float64) bool) EventID {
	return a.k.Every(start, period, a.name, fn)
}
