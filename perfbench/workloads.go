package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"dlsys/internal/data"
	"dlsys/internal/device"
	"dlsys/internal/distributed"
	"dlsys/internal/fault"
	"dlsys/internal/guard"
	"dlsys/internal/learned"
	"dlsys/internal/livedb"
	"dlsys/internal/nn"
	"dlsys/internal/obs"
	"dlsys/internal/robust"
	"dlsys/internal/serve"
	"dlsys/internal/sim"
	"dlsys/internal/tensor"
)

// A workload is one kind of simulated day. build constructs every
// subsystem from a day's seed up to the kernel's first event; it is called
// once per repetition because every subsystem is single-use. One run
// simulates as many differently seeded days as the days field says, each
// seed derived from the workload seed, so its figures do not hang on one
// draw of the inputs. chaos-day runs the most: its host cost varies most
// from day to day, with how much index maintenance a day triggers.
type workload struct {
	name  string
	why   string
	days  int
	build func(seed int64, rec *setupRec) (*day, error)
}

var workloads = []workload{
	{"fleet-overload", "X14 full-control-plane overload day: sim kernel plus the serve.Fleet handlers do almost all the work", 8, buildFleetOverload},
	{"chaos-day", "X10 composed chaos day: livedb bloom retraining (learned -> nn -> tensor) dominates, the kernel is idle", 12, buildChaosDay},
	{"elastic-train", "X12 hardest cell: 256 ring workers under link faults and churn run nn.ComputeGrad in parallel", 8, buildElasticTrain},
}

// day is a workload built up to its first event.
type day struct {
	k      *sim.Kernel
	start  func() // schedules every subsystem's first event
	finish func() *outcome
}

// outcome is everything a day produced that the benchmark reports or
// checks. Simulated values are deterministic for a seed.
type outcome struct {
	attempted, failed int     // modelled client operations
	latP50S, latP99S  float64 // simulated latency of served requests
	makespanS         float64 // simulated length of the day

	// Workload-specific modelled metrics; NaN where they do not apply.
	recoveryS, heldoutLoss, trainSimS float64

	events int
	prints []fingerprint      // must repeat exactly for a seed
	layer  map[string]float64 // per-layer counters and ratios
	bad    []string           // failed output checks
}

type fingerprint struct {
	name string
	v    uint64
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.bad = append(o.bad, fmt.Sprintf(format, args...))
	}
}

// setupRec times each constructor call of a workload's set-up.
type setupRec struct {
	calls []timedCall
}

type timedCall struct {
	name string
	d    time.Duration
}

func (r *setupRec) time(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	r.calls = append(r.calls, timedCall{name, time.Since(t0)})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// subSeed derives the seed of one input stream from the workload seed, so
// every input of a workload follows from the one seed the benchmark takes.
func subSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	x := uint64(seed) ^ h.Sum64()
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// ---------------------------------------------------------------- fleet

// The fleet-overload day is X14's full-control-plane arm at full scale:
// 1.2M requests from 8 Zipf tenants at 20k req/s on 10 replicas, with a x4
// flash crowd over [0.5, 0.8) virtual seconds, obs off.
const (
	fleetRequests = 1_200_000
	crowdStartS   = 0.5
	crowdEndS     = 0.8
	recoverFrac   = 0.95
)

func fleetOverloadConfig(seed int64) serve.FleetConfig {
	cfg := serve.FleetConfig{
		Seed: subSeed(seed, "fleet"),
		Faults: fault.Config{
			Seed: subSeed(seed, "fleet.faults"),
			Schedule: []fault.Window{
				{Kind: fault.KindArrival, StartS: crowdStartS, EndS: crowdEndS, Factor: 4},
			},
		},
		Tenants:     8,
		Requests:    fleetRequests,
		ArrivalRate: 20000,
		Replicas:    10,
		ServiceS:    1e-3,
		DeadlineS:   0.02,
		BackoffS:    0.01,
		BucketS:     0.05,
	}
	cfg.Admission.Adaptive = true
	cfg.Autoscale.MaxReplicas = 20
	cfg.Autoscale.IntervalS = 0.05
	cfg.Autoscale.LagS = 0.1
	cfg.Autoscale.CooldownS = 0.1
	return cfg
}

func buildFleetOverload(seed int64, rec *setupRec) (*day, error) {
	var f *serve.Fleet
	err := rec.time("serve.NewFleet", func() (err error) {
		f, err = serve.NewFleet(fleetOverloadConfig(seed))
		return err
	})
	if err != nil {
		return nil, err
	}
	return &day{k: f.Kernel(), start: f.Start, finish: func() *outcome {
		res := f.Result()
		o := &outcome{heldoutLoss: math.NaN(), trainSimS: math.NaN(), layer: map[string]float64{}}
		fleetOutcome(o, res)
		o.attempted, o.failed = res.Requests, res.Shed+res.Failed
		o.latP50S, o.latP99S = res.P50S, res.P99S
		o.makespanS = res.VirtualS
		o.recoveryS = recoveryS(res, crowdEndS)
		o.check(o.recoveryS >= 0, "fleet goodput never recovered to %.0f%% of its pre-crowd level", 100*recoverFrac)
		o.check(res.Requests == fleetRequests, "fleet arrived %d of %d requests", res.Requests, fleetRequests)
		o.events = f.Kernel().Processed()
		o.prints = append(o.prints,
			fingerprint{"kernel", f.Kernel().Fingerprint()},
			fingerprint{"fleet-ledger", res.LedgerFP})
		return o
	}}, nil
}

// fleetOutcome checks that every fleet request was finalized and records
// the fleet's per-layer counters.
func fleetOutcome(o *outcome, res serve.FleetResult) {
	o.check(res.Served+res.Shed+res.Failed == res.Requests,
		"fleet finalized %d of %d requests", res.Served+res.Shed+res.Failed, res.Requests)
	var arrived, served int
	for _, ts := range res.Tenants {
		arrived += ts.Arrived
		served += ts.Served
	}
	o.check(arrived == res.Requests && served == res.Served,
		"fleet tenant tallies %d/%d disagree with totals %d/%d", arrived, served, res.Requests, res.Served)
	o.check(finite(res.P50S) && finite(res.P99S) && res.P99S >= res.P50S,
		"fleet latency quantiles p50=%g p99=%g", res.P50S, res.P99S)
	o.layer["serve.fleet.retries"] = float64(res.Retries)
	o.layer["serve.fleet.retries_denied"] = float64(res.RetriesDenied)
	o.layer["serve.fleet.cache_hit_rate"] = ratio(res.CacheHits, res.CacheHits+res.CacheMisses)
	o.layer["serve.fleet.peak_replicas"] = float64(res.PeakReplicas)
}

// recoveryS is the virtual time from the end of the crowd until goodput is
// back at recoverFrac of its pre-crowd level: the first goodput bucket
// after the crowd that reaches the target, interpolated linearly between
// the centres of that bucket and the one before it. -1 if it never does.
func recoveryS(res serve.FleetResult, crowdEnd float64) float64 {
	target := recoverFrac * res.GoodputOver(0.1, crowdStartS)
	rate := func(i int) float64 { return float64(res.Buckets[i].Served) / res.BucketS }
	for i, bk := range res.Buckets {
		if bk.StartS < crowdEnd || rate(i) < target {
			continue
		}
		centre := bk.StartS + res.BucketS/2
		if i == 0 || rate(i-1) >= target {
			return centre - crowdEnd
		}
		frac := (target - rate(i-1)) / (rate(i) - rate(i-1))
		return centre - res.BucketS*(1-frac) - crowdEnd
	}
	return -1
}

// ------------------------------------------------------------ chaos day

// The chaos day is X10 at full scale: a guarded Byzantine-robust training
// job, the tier-ladder serve.Server, a live learned index under drift and
// a corrupted burst, and a Fleet with a flash crowd and a retry storm, all
// on one kernel and one obs handle, under a fault schedule laid out on a
// fault-free probe of the training job.
const (
	chaosExamples = 1600
	chaosEpochs   = 16
	chaosRequests = 2400
	chaosFleetReq = 9600
	chaosIndexOps = 1800
)

func buildChaosDay(seed int64, rec *setupRec) (*day, error) {
	var (
		train, test *data.Dataset
		probeStats  distributed.Stats
		variants    []serve.Variant
		eval        *data.Dataset
		idxKeys     []uint64
	)
	err := rec.time("data.GaussianMixture", func() error {
		rng := rand.New(rand.NewSource(subSeed(seed, "chaos.data")))
		train, test = data.GaussianMixture(rng, chaosExamples, 6, 3, 3.2).Split(rng, 0.8)
		return nil
	})
	if err != nil {
		return nil, err
	}
	y, testY := nn.OneHot(train.Labels, 3), nn.OneHot(test.Labels, 3)
	baseTrain := distributed.Config{
		Workers: 8, Arch: nn.MLPConfig{In: 6, Hidden: []int{24}, Out: 3},
		Epochs: chaosEpochs, BatchSize: 16, LR: 0.1,
		AveragePeriod: 1, SnapshotPeriod: 3,
		Aggregator: robust.CoordMedian{},
		Guard:      &guard.Policy{Mode: guard.Enforce},
	}
	trainSeed := subSeed(seed, "chaos.train")
	// The fault-free probe fixes the day length every window is laid out on.
	if err := rec.time("distributed.Train", func() (err error) {
		_, probeStats, err = distributed.Train(trainSeed, train.X, y, baseTrain)
		return err
	}); err != nil {
		return nil, err
	}
	dayS := probeStats.SimSeconds
	if err := rec.time("serve.BuildVariants", func() (err error) {
		variants, eval, err = serve.BuildVariants(serve.VariantsConfig{
			Seed: subSeed(seed, "chaos.variants"), Examples: chaosExamples, Epochs: chaosEpochs,
		})
		return err
	}); err != nil {
		return nil, err
	}
	if err := rec.time("learned.ClusteredKeys", func() error {
		rng := rand.New(rand.NewSource(subSeed(seed, "chaos.keys")))
		idxKeys = learned.ClusteredKeys(rng, 4*chaosExamples, 4, 1<<44)
		return nil
	}); err != nil {
		return nil, err
	}

	k := sim.New()
	h := obs.NewHandle()

	trainCfg := baseTrain
	trainCfg.Fault = fault.Config{Seed: subSeed(seed, "chaos.train.faults"), Schedule: []fault.Window{
		{Kind: fault.KindCrash, Workers: []int{3}, StartS: 0.05 * dayS, EndS: 0.20 * dayS, Prob: 0.6},
		{Kind: fault.KindStraggle, StartS: 0.20 * dayS, EndS: 0.45 * dayS, Prob: 0.4, Factor: 4},
		{Kind: fault.KindSignFlip, Workers: []int{5, 6}, StartS: 0.50 * dayS},
		{Kind: fault.KindBatchCorrupt, StartS: 0.70 * dayS, EndS: 0.95 * dayS, Prob: 0.5},
	}}
	trainCfg.Reputation = &robust.ReputationConfig{}
	trainCfg.Obs = h
	trainCfg.Kernel = k
	var job *distributed.Job
	if err := rec.time("distributed.NewJob", func() (err error) {
		job, err = distributed.NewJob(trainSeed, train.X, y, trainCfg)
		return err
	}); err != nil {
		return nil, err
	}

	mk := func(v serve.Variant) serve.Replica {
		return serve.Replica{Variant: v, Device: device.EdgeDevice, Efficiency: 0.5}
	}
	var srv *serve.Server
	if err := rec.time("serve.NewServer", func() (err error) {
		srv, err = serve.NewServer(serve.Config{
			Seed: subSeed(seed, "chaos.serve"),
			Faults: fault.Config{Seed: subSeed(seed, "chaos.serve.faults"), Schedule: []fault.Window{
				{Kind: fault.KindCrash, Workers: []int{1}, StartS: 0.15 * dayS, EndS: 0.25 * dayS, Prob: 0.05},
				{Kind: fault.KindArrival, StartS: 0.30 * dayS, EndS: 0.40 * dayS, Factor: 6},
				{Kind: fault.KindStraggle, StartS: 0.55 * dayS, EndS: 0.70 * dayS, Prob: 0.3, Factor: 6},
			}},
			Replicas:      []serve.Replica{mk(variants[0]), mk(variants[0]), mk(variants[1]), mk(variants[2]), mk(variants[3])},
			ArrivalRate:   chaosRequests / dayS,
			Requests:      chaosRequests,
			HedgeQuantile: 0.9,
			Fallback:      true,
			EvalX:         eval.X,
			EvalLabels:    eval.Labels,
			Obs:           h,
			Kernel:        k,
		})
		return err
	}); err != nil {
		return nil, err
	}

	var eng *livedb.Engine
	if err := rec.time("livedb.NewEngine", func() (err error) {
		eng, err = livedb.NewEngine(idxKeys, livedb.Config{
			Seed:          subSeed(seed, "chaos.index"),
			MaintainEvery: dayS / 60,
			RetrainS:      dayS / 24,
			CooldownS:     dayS / 40,
			Kernel:        k,
			Obs:           h,
		})
		return err
	}); err != nil {
		return nil, err
	}
	var wl *livedb.Workload
	if err := rec.time("livedb.NewWorkload", func() (err error) {
		wl, err = livedb.NewWorkload(eng, idxKeys, livedb.WorkloadConfig{
			Seed:         subSeed(seed, "chaos.index.wl"),
			Ops:          chaosIndexOps,
			Rate:         chaosIndexOps / dayS,
			ClusterWidth: 1 << 38,
			Space:        idxKeys[len(idxKeys)-1],
			Phases: []livedb.Phase{
				{StartS: 0},
				{StartS: 0.45 * dayS, Clusters: []uint64{9 << 40}, HardNegFrac: 0.4},
			},
			Faults: fault.Config{Seed: subSeed(seed, "chaos.index.faults"), Schedule: []fault.Window{
				{Kind: fault.KindCorrupt, StartS: 0.40 * dayS, EndS: 0.60 * dayS, Prob: 0.25},
			}},
		})
		return err
	}); err != nil {
		return nil, err
	}

	fleetRate := chaosFleetReq / dayS
	fc := serve.FleetConfig{
		Seed: subSeed(seed, "chaos.fleet"),
		Faults: fault.Config{Seed: subSeed(seed, "chaos.fleet.faults"), Schedule: []fault.Window{
			{Kind: fault.KindArrival, StartS: 0.30 * dayS, EndS: 0.40 * dayS, Factor: 4},
			{Kind: fault.KindRetryStorm, Workers: []int{0}, StartS: 0.55 * dayS, EndS: 0.70 * dayS, Factor: 3},
		}},
		Kernel:      k,
		Obs:         h,
		Tenants:     8,
		Requests:    chaosFleetReq,
		ArrivalRate: fleetRate,
		Replicas:    4,
		ServiceS:    8 / fleetRate,
	}
	fc.Admission.Adaptive = true
	fc.Autoscale.MaxReplicas = 8
	fc.Autoscale.IntervalS = dayS / 50
	fc.Autoscale.LagS = dayS / 25
	fc.Autoscale.CooldownS = dayS / 25
	var flt *serve.Fleet
	if err := rec.time("serve.NewFleet", func() (err error) {
		flt, err = serve.NewFleet(fc)
		return err
	}); err != nil {
		return nil, err
	}

	start := func() {
		job.Start()
		srv.Start()
		eng.Start()
		wl.Start()
		flt.Start()
	}
	finish := func() *outcome {
		o := &outcome{recoveryS: math.NaN(), layer: map[string]float64{}}
		net, stats, err := job.Result()
		o.check(err == nil, "training job: %v", err)
		res, fres := srv.Result(), flt.Result()
		dbSt, dbWl := eng.Stats(), wl.Stats()

		o.heldoutLoss = math.NaN()
		if net != nil {
			o.heldoutLoss = heldOutLoss(net, test.X, testY)
		}
		o.trainSimS = stats.SimSeconds
		o.check(finite(o.heldoutLoss), "held-out loss %g is not finite", o.heldoutLoss)
		o.check(finite(stats.SimSeconds) && stats.SimSeconds > 0, "training makespan %g", stats.SimSeconds)

		// Every server request and fleet request is finalized; every index
		// query is answered by one ladder tier and agrees with the oracle.
		o.check(res.Served+res.Shed+res.Failed == chaosRequests,
			"server finalized %d of %d requests", res.Served+res.Shed+res.Failed, chaosRequests)
		o.check(len(res.Records) == chaosRequests, "server ledger holds %d of %d records", len(res.Records), chaosRequests)
		fleetOutcome(o, fres)
		unanswered := dbSt.Queries() - dbSt.ServedTotal()
		o.check(unanswered == 0, "index left %d queries unanswered", unanswered)
		o.check(dbWl.Mismatches == 0, "index gave %d answers that disagree with the oracle", dbWl.Mismatches)
		o.check(dbWl.Ops == chaosIndexOps, "index workload issued %d of %d operations", dbWl.Ops, chaosIndexOps)

		o.attempted = chaosRequests + fres.Requests + dbWl.Ops
		o.failed = res.Shed + res.Failed + fres.Shed + fres.Failed + unanswered + dbWl.Mismatches
		o.latP50S, o.latP99S = res.P50S, res.P99S
		o.makespanS = k.Now()
		o.events = k.Processed()

		o.prints = append(o.prints,
			fingerprint{"kernel", k.Fingerprint()},
			fingerprint{"registry", h.Reg.Fingerprint()},
			fingerprint{"trace", h.Tracer.Fingerprint()},
			fingerprint{"serve-ledger", res.Fingerprint()},
			fingerprint{"index-ledger", eng.Ledger().Fingerprint()},
			fingerprint{"fleet-ledger", fres.LedgerFP})
		if stats.Quarantine != nil {
			o.prints = append(o.prints, fingerprint{"quarantine-ledger", stats.Quarantine.Fingerprint()})
		}
		if net != nil {
			o.prints = append(o.prints, fingerprint{"params", paramsFP(net)})
		}
		// Reconcile after the fingerprints: looking a counter up creates it.
		reconcileChaos(o, h, stats, res, fres, dbSt, eng.Ledger())

		degraded := res.Served - res.TierCounts[serve.TierFull]
		o.layer["serve.server.degraded_frac"] = ratio(degraded, res.Served)
		o.layer["serve.server.hedge_win_rate"] = ratio(res.HedgeWins, res.HedgesLaunched)
		o.layer["livedb.retrains"] = float64(dbSt.Retrains)
		o.layer["livedb.swap_rate"] = ratio(dbSt.Swaps, dbSt.Retrains)
		o.layer["livedb.learned_tier_frac"] = ratio(dbSt.TierServed[livedb.TierLearned], dbSt.ServedTotal())
		distOutcome(o, stats)
		o.layer["obs.spans"] = float64(h.Tracer.Len())
		return o
	}
	return &day{k: k, start: start, finish: finish}, nil
}

func distOutcome(o *outcome, st distributed.Stats) {
	o.layer["distributed.bytes_sent"] = float64(st.BytesSent)
	o.layer["distributed.topo_heals"] = float64(st.TopoHeals)
	o.layer["distributed.catchups"] = float64(st.CatchUps)
}

func heldOutLoss(net *nn.Network, x, y *tensor.Tensor) float64 {
	tr := nn.NewTrainer(net, nn.NewSoftmaxCrossEntropy(), nn.NewSGD(0), rand.New(rand.NewSource(1)))
	return tr.ComputeGrad(x, y)
}

// paramsFP hashes the final model's parameters bit for bit.
func paramsFP(net *nn.Network) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range net.ParamVector() {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// reconcileChaos checks that the counters every subsystem wrote into the
// shared registry equal that subsystem's own stats and ledger.
func reconcileChaos(o *outcome, h *obs.Handle, st distributed.Stats, res serve.Result,
	fres serve.FleetResult, db livedb.Stats, led *livedb.Ledger) {
	eq := func(name string, want int64) {
		got := h.Reg.Counter(name).Value()
		o.check(got == want, "counter %s=%d, subsystem stats say %d", name, got, want)
	}
	eq("distributed.retransmissions", int64(st.Retransmissions))
	eq("distributed.crashes", int64(st.Crashes))
	eq("distributed.rejoins", int64(st.Rejoins))
	eq("distributed.restores", int64(st.Restores))
	eq("distributed.snapshots", int64(st.Snapshots))
	eq("distributed.straggler_rounds", int64(st.StragglerRounds))
	eq("distributed.numerical_faults", int64(st.NumericalFaults))
	eq("distributed.guard_skipped", int64(st.GuardSkipped))
	eq("distributed.steps", int64(st.Steps))
	eq("distributed.bytes_sent", st.BytesSent)
	g := h.Reg.Gauge("distributed.sim_seconds").Value()
	o.check(g == st.SimSeconds, "gauge distributed.sim_seconds=%g, stats say %g", g, st.SimSeconds)
	eq("serve.served", int64(res.Served))
	eq("serve.shed", int64(res.Shed))
	eq("serve.failed", int64(res.Failed))
	eq("serve.hedges_launched", int64(res.HedgesLaunched))
	eq("serve.hedge_wins", int64(res.HedgeWins))
	for tier := serve.TierFull; tier < serve.Tier(4); tier++ {
		eq("serve.tier."+tier.String()+".served", int64(res.TierCounts[tier]))
	}
	eq("livedb.lookups", int64(db.Lookups))
	eq("livedb.range_scans", int64(db.RangeScans))
	eq("livedb.inserts", int64(db.Stored))
	eq("livedb.retrains", int64(db.Retrains))
	eq("livedb.swaps", int64(db.Swaps))
	eq("livedb.rollbacks", int64(db.Rollbacks))
	eq("livedb.quarantined", int64(db.Quarantined))
	for tier := livedb.TierLearned; int(tier) < livedb.NumTiers; tier++ {
		eq("livedb.tier."+tier.String()+".served", int64(db.TierServed[tier]))
	}
	o.check(led.Count(livedb.EvSwap) == db.Swaps && led.Count(livedb.EvRollback) == db.Rollbacks,
		"index ledger swaps/rollbacks %d/%d, stats say %d/%d",
		led.Count(livedb.EvSwap), led.Count(livedb.EvRollback), db.Swaps, db.Rollbacks)
	eq("fleet.arrived", int64(fres.Requests))
	eq("fleet.served", int64(fres.Served))
	eq("fleet.shed", int64(fres.Shed))
	eq("fleet.failed", int64(fres.Failed))
	eq("fleet.retries", int64(fres.Retries))
	eq("fleet.retries_denied", int64(fres.RetriesDenied))
	eq("fleet.cache_hits", int64(fres.CacheHits))
	for i, ts := range fres.Tenants {
		eq(serve.TenantCounterName(i, "arrived"), int64(ts.Arrived))
		eq(serve.TenantCounterName(i, "served"), int64(ts.Served))
	}
}

// -------------------------------------------------------- elastic train

// The elastic-train day is X12's hardest convergence cell: 256 workers on
// the ring collective, link faults plus churn, obs on. It trains on 16
// examples per worker (8 epochs x 2 steps = 16 rounds) and holds out a
// fifth of the generated examples to score the final model.
const elasticWorkers = 256

// elasticChurn is X12's churn schedule at n workers: n/8 workers leave at
// round 3 and rejoin at round 12, catching up from snapshots, and worker 1
// first joins at round 6. absent counts the member-rounds it keeps out of
// the job.
func elasticChurn(n int) (evs []distributed.ChurnEvent, absent int) {
	for i := 0; i < n/8; i++ {
		evs = append(evs,
			distributed.ChurnEvent{Round: 3, Worker: 2 + i, Join: false},
			distributed.ChurnEvent{Round: 12, Worker: 2 + i, Join: true})
	}
	evs = append(evs, distributed.ChurnEvent{Round: 6, Worker: 1, Join: true})
	return evs, n/8*(12-3) + 6
}

func buildElasticTrain(seed int64, rec *setupRec) (*day, error) {
	const n = elasticWorkers
	var train, test *data.Dataset
	if err := rec.time("data.GaussianMixture", func() error {
		rng := rand.New(rand.NewSource(subSeed(seed, "elastic.data")))
		train, test = data.GaussianMixture(rng, 20*n, 5, 3, 3.2).Split(rng, 0.8)
		return nil
	}); err != nil {
		return nil, err
	}
	y, testY := nn.OneHot(train.Labels, 3), nn.OneHot(test.Labels, 3)
	h := obs.NewHandle()
	churn, absent := elasticChurn(n)
	cfg := distributed.Config{
		Workers: n, Arch: nn.MLPConfig{In: 5, Hidden: []int{16}, Out: 3},
		Epochs: 8, BatchSize: 8, LR: 0.1,
		AveragePeriod: 1, Topology: distributed.TopoRing, Device: device.ClusterNode,
		SnapshotPeriod: 2,
		Fault:          fault.LinkRate(subSeed(seed, "elastic.links"), 0.12),
		Churn:          churn,
		Obs:            h,
	}
	var job *distributed.Job
	if err := rec.time("distributed.NewJob", func() (err error) {
		job, err = distributed.NewJob(subSeed(seed, "elastic.train"), train.X, y, cfg)
		return err
	}); err != nil {
		return nil, err
	}
	k := job.Kernel()
	finish := func() *outcome {
		o := &outcome{recoveryS: math.NaN(), layer: map[string]float64{}}
		net, st, err := job.Result()
		o.check(err == nil, "training job: %v", err)
		o.heldoutLoss = math.NaN()
		if net != nil {
			o.heldoutLoss = heldOutLoss(net, test.X, testY)
			o.prints = append(o.prints, fingerprint{"params", paramsFP(net)})
		}
		o.trainSimS = st.SimSeconds
		o.makespanS = st.SimSeconds
		o.prints = append(o.prints,
			fingerprint{"kernel", k.Fingerprint()},
			fingerprint{"registry", h.Reg.Fingerprint()},
			fingerprint{"trace", h.Tracer.Fingerprint()})
		o.check(finite(o.heldoutLoss), "held-out loss %g is not finite", o.heldoutLoss)
		o.check(len(st.EpochLoss) == cfg.Epochs, "trained %d of %d epochs", len(st.EpochLoss), cfg.Epochs)
		for _, l := range st.EpochLoss {
			o.check(finite(l), "epoch loss %g is not finite", l)
		}
		// Reconcile after the fingerprints: looking a counter up creates it.
		wantLeaves := n / 8
		o.check(st.Leaves == wantLeaves && st.Joins == wantLeaves+1 && st.CatchUps == st.Joins,
			"churn ledger leaves=%d joins=%d catchups=%d, scheduled %d/%d/%d",
			st.Leaves, st.Joins, st.CatchUps, wantLeaves, wantLeaves+1, wantLeaves+1)
		for _, pair := range []struct {
			name string
			want int
		}{
			{"distributed.link_dropped", st.LinkDropped},
			{"distributed.link_excluded", st.LinkExcluded},
			{"distributed.topo_heals", st.TopoHeals},
			{"distributed.topo_degraded", st.TopoDegraded},
			{"distributed.joins", st.Joins},
			{"distributed.leaves", st.Leaves},
			{"distributed.catchups", st.CatchUps},
			{"distributed.comm_rounds", st.CommRounds},
		} {
			got := h.Reg.Counter(pair.name).Value()
			o.check(got == int64(pair.want), "counter %s=%d, stats say %d", pair.name, got, pair.want)
		}

		// A training job's client operations are its workers' gradient
		// contributions: one per member per round. One that a link fault
		// or partition kept out of the aggregate failed.
		rounds := roundSpans(h)
		o.attempted = st.Steps*n - absent
		o.failed = st.LinkExcluded + st.Timeouts
		o.latP50S, o.latP99S = quantile(rounds, 0.5), quantile(rounds, 0.99)
		o.events = k.Processed()
		distOutcome(o, st)
		o.layer["obs.spans"] = float64(h.Tracer.Len())
		return o
	}
	return &day{k: k, start: job.Start, finish: finish}, nil
}

// roundSpans returns the simulated durations of the job's sync rounds.
func roundSpans(h *obs.Handle) []float64 {
	var ds []float64
	for _, s := range h.Tracer.Spans() {
		if s.Name == "sync-round" {
			ds = append(ds, s.EndS-s.StartS)
		}
	}
	return ds
}
