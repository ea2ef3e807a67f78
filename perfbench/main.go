// Command perfbench is the repository's benchmark. From one workload seed
// it derives a few simulated days of one workload, runs them round-robin
// for a fixed host-time budget, checks every repetition's outputs, and
// prints the end-to-end metrics (tracing off) or, with --trace 1, the
// per-layer metrics of a traced run plus a layer ladder. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload fleet-overload --seed 1 --seconds 35 --trace 0
//
// perfbench/README.md says why each workload exists and which end-to-end
// metric each layer should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the workload seed later claims are measured on; any
// other seed gives a held-out re-run of the same workloads.
const defaultSeed = 1

// traceDir is where a traced run writes its spans, under the build
// directory run.sh uses so the checkout's ignored files hold them.
var traceDir = filepath.Join(".bench_build", "perfbench", "trace")

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "fleet-overload, chaos-day, elastic-train, or all of them in turn")
	seed := fs.Int64("seed", defaultSeed, "workload seed; every input derives from it")
	seconds := fs.Float64("seconds", 35, "host seconds of repetitions to measure")
	trace := fs.Int("trace", 0, "1 runs the traced run and the layer ladder instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}

	// Never more procs than CPUs, and at most 2, so figures from larger
	// machines stay comparable and the GOMAXPROCS 1-vs-2 check means the
	// same thing everywhere.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	budget := time.Duration(*seconds * float64(time.Second))
	status := 0
	for _, w := range selected {
		var rep *report
		var err error
		if *trace == 1 {
			rep, err = tracedRun(w, *seed, budget)
		} else {
			rep, err = measuredRun(w, *seed, budget)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Println(string(line))
		if !rep.Correct {
			status = 1
		}
	}
	return status
}

// daySeeds derives the seeds of the days one run of w simulates.
func daySeeds(w workload, seed int64) []int64 {
	seeds := make([]int64, w.days)
	for i := range seeds {
		seeds[i] = subSeed(seed, fmt.Sprintf("day%d", i))
	}
	return seeds
}

// rep is one repetition: set-up, one simulated day, and its outcome.
// Times are host CPU time (user+system, all threads) unless named wall.
type rep struct {
	day                int     // index into the run's day seeds
	scale              float64 // converts the CPU times to the reference clock
	start              time.Time
	setup, run         time.Duration
	setupWall, runWall time.Duration
	rssMB              float64 // peak resident set during set-up and day
	rec                *setupRec
	o                  *outcome
	mem                runtime.MemStats // allocation delta over the day, when asked for
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// once builds and runs one day. A non-nil tr drives it step by step;
// withMem records the day's allocation delta.
func once(w workload, seeds []int64, day int, tr *stepTrace, withMem bool) (rep, error) {
	debug.FreeOSMemory() // every repetition starts from the same heap
	r := rep{day: day, scale: 1, rec: &setupRec{}}
	stopRSS := sampleRSS()
	c0, t0 := cpuTime(), time.Now()
	d, err := w.build(seeds[day], r.rec)
	if err != nil {
		stopRSS()
		return r, err
	}
	d.start()
	r.start, r.setup, r.setupWall = t0, cpuTime()-c0, time.Since(t0)
	var m0 runtime.MemStats
	if withMem {
		runtime.ReadMemStats(&m0)
	}
	c1, t1 := cpuTime(), time.Now()
	if tr != nil {
		runTraced(d.k, day, tr)
	} else {
		d.k.Run()
	}
	c2, t2 := cpuTime(), time.Now()
	r.rssMB = stopRSS()
	if withMem {
		runtime.ReadMemStats(&r.mem)
		r.mem.TotalAlloc -= m0.TotalAlloc
		r.mem.NumGC -= m0.NumGC
	}
	r.run, r.runWall, r.o = c2-c1, t2.Sub(t1), d.finish()
	return r, nil
}

// verify applies the cross-repetition checks: every repetition of a day
// reproduces that day's first repetition bit for bit.
func verify(reps []rep) {
	first := map[int]*outcome{}
	for i, r := range reps {
		ref, ok := first[r.day]
		if !ok {
			first[r.day] = r.o
			continue
		}
		if diff := r.o.diff(ref); diff != "" {
			r.o.bad = append(r.o.bad, fmt.Sprintf("repetition %d of day %d differs from the day's first: %s", i+1, r.day, diff))
		}
	}
}

// diff names the first simulated output that differs from ref.
func (o *outcome) diff(ref *outcome) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case o.attempted != ref.attempted || o.failed != ref.failed:
		return fmt.Sprintf("operations %d/%d vs %d/%d", o.failed, o.attempted, ref.failed, ref.attempted)
	case !same(o.latP50S, ref.latP50S) || !same(o.latP99S, ref.latP99S):
		return "latency quantiles"
	case !same(o.makespanS, ref.makespanS) || !same(o.trainSimS, ref.trainSimS):
		return "simulated makespan"
	case !same(o.recoveryS, ref.recoveryS):
		return "recovery time"
	case !same(o.heldoutLoss, ref.heldoutLoss):
		return "held-out loss"
	case o.events != ref.events:
		return fmt.Sprintf("kernel events %d vs %d", o.events, ref.events)
	case len(o.prints) != len(ref.prints):
		return "fingerprint set"
	}
	for i, p := range o.prints {
		if p != ref.prints[i] {
			return fmt.Sprintf("%s fingerprint %016x vs %016x", p.name, p.v, ref.prints[i].v)
		}
	}
	for k, v := range ref.layer {
		if !same(o.layer[k], v) {
			return "counter " + k
		}
	}
	return ""
}

// tally counts the benchmark's operations — the simulated client
// operations of every repetition. A repetition that failed a check fails
// all of its operations. modelled adds the operations the modelled system
// itself shed, failed or left unanswered.
func tally(reps []rep) (attempted, failed, modelled int) {
	for _, r := range reps {
		attempted += r.o.attempted
		if len(r.o.bad) > 0 {
			failed += r.o.attempted
			modelled += r.o.attempted
		} else {
			modelled += r.o.failed
		}
	}
	return attempted, failed, modelled
}

// setupS and runS are a repetition's CPU times at the reference clock.
func setupS(r rep) float64 { return r.scale * r.setup.Seconds() }
func runS(r rep) float64   { return r.scale * r.run.Seconds() }

func quantileOf(reps []rep, f func(rep) float64, q float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return quantile(xs, q)
}

func medianOf(reps []rep, f func(rep) float64) float64 { return quantileOf(reps, f, 0.5) }

// dayMean is the figure a run reports for a host measurement: each day's
// median over its repetitions, which sheds host noise, averaged over the
// days, which estimates the workload's cost rather than one day's.
func dayMean(reps []rep, f func(rep) float64) float64 {
	byDay := map[int][]rep{}
	for _, r := range reps {
		byDay[r.day] = append(byDay[r.day], r)
	}
	var sum float64
	for _, rs := range byDay {
		sum += medianOf(rs, f)
	}
	return sum / float64(len(byDay))
}

// firstPerDay returns each day's first repetition, in day order.
// Repetitions run the days round-robin from day 0, so each day's first
// repetition comes after the previous day's.
func firstPerDay(reps []rep) []rep {
	var out []rep
	for _, r := range reps {
		if r.day == len(out) {
			out = append(out, r)
		}
	}
	return out
}

// measuredRun repeats set-up plus day with tracing off, cycling through
// the run's days until the budget is spent, and reports the end-to-end
// metrics.
func measuredRun(w workload, seed int64, budget time.Duration) (*report, error) {
	seeds := daySeeds(w, seed)
	start := time.Now()
	var reps []rep
	cals := []float64{calibrate().Seconds()}
	// At least two rounds, so every day is repeated.
	for len(reps) < 2*len(seeds) || time.Since(start) < budget {
		r, err := once(w, seeds, len(reps)%len(seeds), nil, false)
		if err != nil {
			return nil, err
		}
		cals = append(cals, calibrate().Seconds())
		r.scale = clockScale(cals[len(cals)-2], cals[len(cals)-1])
		reps = append(reps, r)
	}
	verify(reps)
	attempted, failed, modelledFailed := tally(reps)
	setup := dayMean(reps, setupS)
	run := dayMean(reps, runS)
	rss := dayMean(reps, func(r rep) float64 { return r.rssMB })

	header(w, seed, seeds, len(reps))
	fmt.Printf("end-to-end, host CPU time at the reference clock, tracing off (mean over days of each day's median; %d repetitions):\n", len(reps))
	fmt.Printf("  calibration: %d samples, median %.6f s, quartiles [%.6f .. %.6f]; reference %.6f s\n",
		len(cals), median(cals), quantile(cals, 0.25), quantile(cals, 0.75), calRefS)
	fmt.Printf("  %-12s %12s   %-22s   %12s   %12s\n", "", "scaled", "raw CPU quartiles", "raw CPU", "wall")
	timing(reps, "setup_s", setupS, func(r rep) float64 { return r.setup.Seconds() },
		func(r rep) float64 { return r.setupWall.Seconds() })
	timing(reps, "run_s", runS, func(r rep) float64 { return r.run.Seconds() },
		func(r rep) float64 { return r.runWall.Seconds() })
	fmt.Printf("  %-12s %12.3f MB\n", "peak_rss_mb", rss)
	modelled(reps, attempted, modelledFailed)
	correct := checks(reps)

	return &report{
		Correct: correct, Attempted: attempted, Failed: failed,
		Metrics: map[string]metric{
			"setup_s":     {setup, "s"},
			"run_s":       {run, "s"},
			"peak_rss_mb": {rss, "MB"},
		},
	}, nil
}

// timing prints one host time: the scaled CPU-time figure the JSON
// reports, the raw CPU quartiles over all repetitions, and the raw CPU and
// wall-clock figures beside it.
func timing(reps []rep, name string, scaled, raw, wall func(rep) float64) {
	fmt.Printf("  %-12s %12.6f s [%.6f .. %.6f]   %12.6f s %12.6f s\n", name, dayMean(reps, scaled),
		quantileOf(reps, raw, 0.25), quantileOf(reps, raw, 0.75), dayMean(reps, raw), dayMean(reps, wall))
}

func header(w workload, seed int64, seeds []int64, reps int) {
	fmt.Printf("== perfbench workload=%s seed=%d days=%d gomaxprocs=%d repetitions=%d\n",
		w.name, seed, len(seeds), runtime.GOMAXPROCS(0), reps)
	fmt.Printf("   why: %s\n", w.why)
}

// modelled prints the simulated metrics of each day. They repeat exactly
// for a seed, which verify checks.
func modelled(reps []rep, attempted, failed int) {
	fmt.Println("modelled system, simulated, per day (repeats exactly for the seed):")
	fmt.Printf("  %-4s %16s %15s %15s %11s %13s %12s\n", "day", "ops_failed_frac", "latency_p50_ms",
		"latency_p99_ms", "recovery_s", "heldout_loss", "train_sim_s")
	cell := func(v float64) string {
		if math.IsNaN(v) {
			return "n/a"
		}
		return fmt.Sprintf("%.6g", v)
	}
	for _, r := range firstPerDay(reps) {
		o := r.o
		fmt.Printf("  %-4d %16s %15s %15s %11s %13s %12s\n", r.day, cell(ratio(o.failed, o.attempted)),
			cell(1e3*o.latP50S), cell(1e3*o.latP99S), cell(o.recoveryS), cell(o.heldoutLoss), cell(o.trainSimS))
	}
	fmt.Printf("  units: frac, ms, ms, s, nats, s. Over all repetitions ops_failed_frac=%.6g (%d of %d operations)\n",
		ratio(failed, attempted), failed, attempted)
}

// checks prints the outcome of the output checks and reports whether
// every repetition passed all of them.
func checks(reps []rep) bool {
	bad := 0
	for i, r := range reps {
		for _, b := range r.o.bad {
			if bad < 20 {
				fmt.Printf("  CHECK FAILED (repetition %d, day %d): %s\n", i+1, r.day, b)
			}
			bad++
		}
	}
	if bad > 0 {
		fmt.Printf("checks: %d failed\n", bad)
		return false
	}
	fmt.Printf("checks: all passed on %d repetitions; each day replayed bit-identically\n", len(reps))
	for _, r := range firstPerDay(reps) {
		var prints []string
		for _, p := range r.o.prints {
			prints = append(prints, fmt.Sprintf("%s=%016x", p.name, p.v))
		}
		fmt.Printf("  day %d: %d events, %s\n", r.day, r.o.events, strings.Join(prints, " "))
	}
	return true
}

// sampleRSS samples the process's resident set every 5 ms until
// the returned function is called, which stops the sampler, waits for it,
// and returns the peak in MB.
func sampleRSS() func() float64 {
	stop, done := make(chan struct{}), make(chan float64)
	go func() {
		peak := rssMB()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- max(peak, rssMB())
				return
			case <-tick.C:
				peak = max(peak, rssMB())
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

// rssMB reads the resident set size from procfs, falling back to the
// memory the Go runtime holds where there is no procfs.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	var size, resident int64
	if err == nil {
		if n, _ := fmt.Sscan(string(b), &size, &resident); n == 2 {
			return float64(resident*int64(os.Getpagesize())) / (1 << 20)
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys-m.HeapReleased) / (1 << 20)
}

// layerMetrics is every per-layer metric a traced run reports, on every
// workload; a layer the workload does not run reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"sim.events", "count"}, {"sim.pending_max", "count"},
	{"sim.step_p50_ns", "ns"}, {"sim.step_p99_ns", "ns"},
	{"sim.hold_ns.q_live", "ns"}, {"sim.hold_ns.q1e5", "ns"}, {"sim.hold_allocs", "count"},
	{"actor.fleet-wl.share", "frac"}, {"actor.fleet-srv.share", "frac"},
	{"actor.fleet-scale.share", "frac"}, {"actor.serve.share", "frac"},
	{"serve.fleet.retries", "count"}, {"serve.fleet.retries_denied", "count"},
	{"serve.fleet.cache_hit_rate", "frac"}, {"serve.fleet.peak_replicas", "count"},
	{"serve.server.degraded_frac", "frac"}, {"serve.server.hedge_win_rate", "frac"},
	{"actor.livedb-maint.share", "frac"}, {"actor.livedb-wl.share", "frac"},
	{"livedb.retrains", "count"}, {"livedb.swap_rate", "frac"}, {"livedb.learned_tier_frac", "frac"},
	{"livedb.lookup_ns", "ns"}, {"livedb.insert_ns", "ns"},
	{"learned.bloom_build_ms", "ms"}, {"learned.bloom_fpr", "frac"},
	{"nn.step_ns.bloom", "ns"}, {"nn.step_allocs.bloom", "count"}, {"nn.step_ns.job", "ns"},
	{"nn.grad_ns.worker", "ns"}, {"nn.grad_allocs.worker", "count"},
	{"tensor.matmul_ns.bloom", "ns"}, {"tensor.matmul_transa_ns.bloom", "ns"},
	{"tensor.matmul_transb_ns.bloom", "ns"},
	{"host.alloc_mb", "MB"}, {"host.gc_cycles", "count"},
	{"actor.distributed.share", "frac"}, {"distributed.round_p50_ms", "ms"},
	{"distributed.bytes_sent", "bytes"}, {"distributed.topo_heals", "count"},
	{"distributed.catchups", "count"}, {"distributed.newjob_ms", "ms"},
	{"obs.counter_inc_ns", "ns"}, {"obs.histogram_observe_ns", "ns"}, {"obs.spans", "count"},
	{"model.ops_failed_frac", "frac"}, {"model.heldout_loss", "nats"},
	{"trace.run_s", "s"}, {"trace.overhead_frac", "frac"},
}

// tracedRun alternates untraced and traced repetitions of each day for
// the budget, checks day 0 at GOMAXPROCS 1 against GOMAXPROCS 2, runs the
// layer ladder and reports the per-layer metrics.
func tracedRun(w workload, seed int64, budget time.Duration) (*report, error) {
	seeds := daySeeds(w, seed)
	spans := &spanLog{t0: time.Now()}
	root := spans.add(-1, "perfbench."+w.name, spans.t0, 0, map[string]string{"seed": fmt.Sprint(seed)})
	tr := &stepTrace{}
	var plain, traced []rep
	traceStart := time.Now()
	cals := []float64{calibrate().Seconds()}
	// At least one round, so every day runs both ways.
	for i := 0; i < len(seeds) || time.Since(traceStart) < budget; i++ {
		day := i % len(seeds)
		for _, withTrace := range []bool{false, true} {
			var t *stepTrace
			if withTrace {
				t = tr
			}
			r, err := once(w, seeds, day, t, !withTrace)
			if err != nil {
				return nil, err
			}
			cals = append(cals, calibrate().Seconds())
			r.scale = clockScale(cals[len(cals)-2], cals[len(cals)-1])
			spans.addSetup(root, r.start, r.rec)
			if withTrace {
				traced = append(traced, r)
			} else {
				plain = append(plain, r)
				spans.add(root, "day", r.start.Add(r.setupWall), r.runWall, map[string]string{"day": fmt.Sprint(day)})
			}
		}
	}
	spans.addTrace(root, traceStart, tr)

	// Day 0 at GOMAXPROCS 1 must reproduce its outputs at 2.
	procs := runtime.GOMAXPROCS(1)
	single, err := once(w, seeds, 0, nil, false)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return nil, err
	}
	all := append(append(append([]rep{}, plain...), traced...), single)
	verify(all)
	for i, b := range single.o.bad {
		single.o.bad[i] = "at GOMAXPROCS 1: " + b
	}

	at := time.Now()
	rungs, err := ladder(seed, tr.pendingMax)
	if err != nil {
		return nil, err
	}
	spans.add(root, "ladder", at, time.Since(at), nil)
	spans.spans[root].End = time.Since(spans.t0).Nanoseconds()

	run := dayMean(plain, runS)
	tracedS := dayMean(traced, runS)
	rows, steps := tr.table()
	attempted, failed, modelledFailed := tally(all)

	vals := map[string]float64{
		"sim.pending_max":     float64(tr.pendingMax),
		"sim.step_p50_ns":     pctl(steps, 0.50),
		"sim.step_p99_ns":     pctl(steps, 0.99),
		"host.alloc_mb":       dayMean(plain, func(r rep) float64 { return float64(r.mem.TotalAlloc) / (1 << 20) }),
		"host.gc_cycles":      dayMean(plain, func(r rep) float64 { return float64(r.mem.NumGC) }),
		"trace.run_s":         tracedS,
		"trace.overhead_frac": tracedS/run - 1,
	}
	// Simulated counters are the mean over the run's days.
	days := firstPerDay(plain)
	var dayAttempted, dayFailed int
	for _, r := range days {
		o := r.o
		dayAttempted += o.attempted
		dayFailed += o.failed
		vals["sim.events"] += float64(o.events) / float64(len(days))
		if !math.IsNaN(o.heldoutLoss) {
			vals["model.heldout_loss"] += o.heldoutLoss / float64(len(days))
		}
		for k, v := range o.layer {
			vals[k] += v / float64(len(days))
		}
	}
	vals["model.ops_failed_frac"] = ratio(dayFailed, dayAttempted)
	for _, r := range rows {
		vals["actor."+r.name+".share"] = r.share
	}
	for _, r := range rungs {
		vals[r.name] = r.value
	}

	header(w, seed, seeds, len(all))
	fmt.Printf("traced run: %d untraced and %d traced days; run_s %.6f s untraced, %.6f s traced (overhead %+.1f%%)\n",
		len(plain), len(traced), run, tracedS, 100*(tracedS/run-1))
	fmt.Printf("per-actor host time over the traced days (%d steps, peak queue %d):\n", tr.steps, tr.pendingMax)
	fmt.Printf("  %-16s %10s %12s %8s %12s %12s\n", "actor", "count", "self_s", "share", "p50_ns", "p99_ns")
	for _, r := range rows {
		fmt.Printf("  %-16s %10d %12.6f %7.2f%% %12.0f %12.0f\n", r.name, r.count, r.selfS, 100*r.share, r.p50ns, r.p99ns)
	}
	profile(w.name, rows)
	fmt.Println("set-up calls (median over repetitions):")
	for _, c := range setupMedians(all) {
		fmt.Printf("  %-36s %12.6f s\n", "setup."+c.name+"_s", c.d.Seconds())
	}
	fmt.Println("per-layer metrics:")
	m := map[string]metric{}
	for _, lm := range layerMetrics {
		v := vals[lm.name]
		m[lm.name] = metric{v, lm.unit}
		fmt.Printf("  %-32s %16.6g %s\n", lm.name, v, lm.unit)
	}
	modelled(all, attempted, modelledFailed)
	correct := checks(all)

	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := spans.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(spans.spans), path)
	return &report{Correct: correct, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// setupMedians gives each set-up call's median duration, in call order.
func setupMedians(reps []rep) []timedCall {
	var order []string
	byName := map[string][]float64{}
	for _, r := range reps {
		for _, c := range r.rec.calls {
			if _, ok := byName[c.name]; !ok {
				order = append(order, c.name)
			}
			byName[c.name] = append(byName[c.name], c.d.Seconds())
		}
	}
	out := make([]timedCall, len(order))
	for i, n := range order {
		out[i] = timedCall{n, time.Duration(median(byName[n]) * float64(time.Second))}
	}
	return out
}

// profile prints whether the traced run shows the profile each workload
// was chosen for. It describes the program being measured, so a change
// that moves it is news, not a failed check.
func profile(name string, rows []actorRow) {
	share := map[string]float64{}
	for _, r := range rows {
		share[r.name] = r.share
	}
	switch name {
	case "fleet-overload":
		s := share["fleet-wl"] + share["fleet-srv"]
		fmt.Printf("profile: fleet-wl+fleet-srv carry %.1f%% of traced time (chosen for >= 90%%): %v\n", 100*s, s >= 0.9)
	case "chaos-day":
		top := ""
		if len(rows) > 0 {
			top = rows[0].name
		}
		fmt.Printf("profile: largest actor share is %s at %.1f%% (chosen for livedb-maint): %v\n",
			top, 100*share[top], top == "livedb-maint")
	case "elastic-train":
		fmt.Printf("profile: distributed carries %.1f%% of traced time\n", 100*share["distributed"])
	}
}
