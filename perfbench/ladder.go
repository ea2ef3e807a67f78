package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"dlsys/internal/data"
	"dlsys/internal/learned"
	"dlsys/internal/livedb"
	"dlsys/internal/nn"
	"dlsys/internal/obs"
	"dlsys/internal/sim"
	"dlsys/internal/tensor"
)

// The ladder calls each layer's public functions at the shapes and queue
// depths the workloads reach and reports host ns/op and allocs/op. It
// runs in every traced run, whatever the workload, so each rung is always
// measured; only the kernel's live queue depth comes from the workload.

// rung is one ladder measurement.
type rung struct {
	name  string
	unit  string
	value float64
}

// perOp times fn over n calls and returns ns/op and allocs/op.
func perOp(n int, fn func()) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(d.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// holdNs runs the classic hold model on the kernel: q events pending, each
// executed event schedules one successor at an exponential delay, so the
// queue depth stays at q. It reports ns and allocs per event.
func holdNs(seed int64, q int) (ns, allocs float64) {
	rng := rand.New(rand.NewSource(subSeed(seed, "ladder.hold")))
	delays := make([]float64, 4096)
	for i := range delays {
		delays[i] = rng.ExpFloat64()
	}
	k := sim.New()
	a := k.Actor("hold")
	i := 0
	var fn func(float64)
	fn = func(float64) {
		i++
		a.After(delays[i&4095], fn)
	}
	for j := 0; j < q; j++ {
		a.At(delays[j&4095]*rng.Float64(), fn)
	}
	return perOp(max(300_000, 2*q), func() { k.Step() })
}

func mlpStep(seed int64, arch nn.MLPConfig, batch int, opt nn.Optimizer, gradOnly bool, n int) (ns, allocs float64) {
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewMLP(rng, arch)
	tr := nn.NewTrainer(net, nn.NewSoftmaxCrossEntropy(), opt, rng)
	x := tensor.RandNormal(rng, 0, 1, batch, arch.In)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(arch.Out)
	}
	y := nn.OneHot(labels, arch.Out)
	if gradOnly {
		return perOp(n, func() { tr.ComputeGrad(x, y) })
	}
	return perOp(n, func() { tr.Step(x, y) })
}

// ladder measures every rung. qLive is the workload's measured peak
// kernel queue depth.
func ladder(seed int64, qLive int) ([]rung, error) {
	var out []rung
	add := func(name, unit string, v float64) { out = append(out, rung{name, unit, v}) }

	// sim: the hold model at the live depth and at 1e5.
	ns, _ := holdNs(seed, max(qLive, 1))
	add("sim.hold_ns.q_live", "ns", ns)
	ns, allocs := holdNs(seed, 100_000)
	add("sim.hold_ns.q1e5", "ns", ns)
	add("sim.hold_allocs", "count", allocs)

	// nn: the learned-Bloom classifier (3-8-2, batch 64, Adam), the chaos
	// job's model (6-24-3, batch 16, SGD) and an elastic worker's gradient
	// (5-16-3, batch 8, ComputeGrad).
	ns, allocs = mlpStep(subSeed(seed, "ladder.bloom"), nn.MLPConfig{In: 3, Hidden: []int{8}, Out: 2}, 64, nn.NewAdam(0.01), false, 20_000)
	add("nn.step_ns.bloom", "ns", ns)
	add("nn.step_allocs.bloom", "count", allocs)
	ns, _ = mlpStep(subSeed(seed, "ladder.job"), nn.MLPConfig{In: 6, Hidden: []int{24}, Out: 3}, 16, nn.NewSGD(0.1), false, 20_000)
	add("nn.step_ns.job", "ns", ns)
	ns, allocs = mlpStep(subSeed(seed, "ladder.worker"), nn.MLPConfig{In: 5, Hidden: []int{16}, Out: 3}, 8, nn.NewSGD(0.1), true, 20_000)
	add("nn.grad_ns.worker", "ns", ns)
	add("nn.grad_allocs.worker", "count", allocs)

	// tensor: the bloom classifier's first layer at batch 64 — forward
	// X[64x3]·W[3x8], weight gradient Xᵀ·dY, input gradient dY·Wᵀ.
	rng := rand.New(rand.NewSource(subSeed(seed, "ladder.tensor")))
	x := tensor.RandNormal(rng, 0, 1, 64, 3)
	w := tensor.RandNormal(rng, 0, 1, 3, 8)
	dy := tensor.RandNormal(rng, 0, 1, 64, 8)
	ns, _ = perOp(100_000, func() { tensor.MatMul(x, w) })
	add("tensor.matmul_ns.bloom", "ns", ns)
	ns, _ = perOp(100_000, func() { tensor.MatMulTransA(x, dy) })
	add("tensor.matmul_transa_ns.bloom", "ns", ns)
	ns, _ = perOp(100_000, func() { tensor.MatMulTransB(dy, w) })
	add("tensor.matmul_transb_ns.bloom", "ns", ns)

	// learned: a learned-Bloom build at the chaos day's key count, with
	// the index engine's settings, and its FPR on fresh absent keys.
	krng := rand.New(rand.NewSource(subSeed(seed, "ladder.keys")))
	keys := learned.ClusteredKeys(krng, 4*chaosExamples, 4, 1<<44)
	var builds []float64
	var lb *learned.LearnedBloom
	for i := 0; i < 3; i++ {
		brng := rand.New(rand.NewSource(subSeed(seed, "ladder.bloom.build")))
		negs := data.NegativeKeys(brng, keys, len(keys)/2+1)
		t0 := time.Now()
		var err error
		lb, err = learned.BuildLearnedBloom(brng, keys, negs, learned.LearnedBloomConfig{
			Hidden: 8, Epochs: 12, LR: 0.01, TargetFPR: 0.025, BackupFPR: 0.025,
		})
		if err != nil {
			return nil, fmt.Errorf("ladder: learned.BuildLearnedBloom: %w", err)
		}
		builds = append(builds, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	add("learned.bloom_build_ms", "ms", median(builds))
	add("learned.bloom_fpr", "frac", lb.MeasuredFPR(data.NegativeKeys(krng, keys, 20_000)))

	// livedb: reads beside writes on one engine at the chaos day's key
	// count, obs on as in the chaos day — 8-key insert batches, each
	// followed by a dozen lookups, a third of them for absent keys.
	k := sim.New()
	eng, err := livedb.NewEngine(keys, livedb.Config{Seed: subSeed(seed, "ladder.index"), Kernel: k, Obs: obs.NewHandle()})
	if err != nil {
		return nil, fmt.Errorf("ladder: livedb.NewEngine: %w", err)
	}
	absent := data.NegativeKeys(krng, keys, 4096)
	var lookup, insert time.Duration
	var lookups, inserts int
	batch := make([]uint64, 8)
	for b := 0; b < 400; b++ {
		for i := range batch {
			batch[i] = krng.Uint64() >> 20
		}
		t0 := time.Now()
		eng.Insert(batch)
		insert += time.Since(t0)
		inserts++
		for i := 0; i < 12; i++ {
			key := keys[krng.Intn(len(keys))]
			if i%3 == 0 {
				key = absent[krng.Intn(len(absent))]
			}
			t0 := time.Now()
			eng.Lookup(key)
			lookup += time.Since(t0)
			lookups++
		}
	}
	add("livedb.lookup_ns", "ns", float64(lookup.Nanoseconds())/float64(lookups))
	add("livedb.insert_ns", "ns", float64(insert.Nanoseconds())/float64(inserts))

	// obs: a named counter increment and histogram observation, the way
	// the index engine writes one per query.
	h := obs.NewHandle()
	bounds := obs.ExpBuckets(1e-7, 2, 14)
	ns, _ = perOp(1_000_000, func() { h.Counter("ladder.counter").Inc() })
	add("obs.counter_inc_ns", "ns", ns)
	v := 0.0
	ns, _ = perOp(1_000_000, func() {
		v += 1e-7
		h.Histogram("ladder.histogram", bounds).Observe(v)
	})
	add("obs.histogram_observe_ns", "ns", ns)

	// distributed: the elastic day's job — NewJob for 256 workers, then
	// each of its 16 rounds stepped on the kernel.
	rec := &setupRec{}
	d, err := buildElasticTrain(seed, rec)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	for _, c := range rec.calls {
		if c.name == "distributed.NewJob" {
			add("distributed.newjob_ms", "ms", float64(c.d.Nanoseconds())/1e6)
		}
	}
	d.start()
	var rounds []float64
	for {
		t0 := time.Now()
		if !d.k.Step() {
			break
		}
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	add("distributed.round_p50_ms", "ms", median(rounds))
	return out, nil
}
