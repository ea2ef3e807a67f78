package nn

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"dlsys/internal/tensor"
)

// The workspace suite pins the training hot path: reusing layer buffers
// must not change a single bit of what training computes, must keep the
// steady-state step allocation-free, and must leave inference outputs
// fresh.

// paramHash is the FNV-1a hash of the network's parameter bits.
func paramHash(net *Network) uint64 {
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

// fixedData returns n rows of standard-normal features and one-hot labels
// over classes, drawn from seed.
func fixedData(seed int64, n, in, classes int) (*tensor.Tensor, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.RandNormal(rng, 0, 1, n, in)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	return x, OneHot(labels, classes)
}

// The constants were captured from the allocating implementation (every
// layer returning fresh tensors) before the workspaces existed. Each case
// takes 200 optimizer steps.
func TestTrainerStepBitIdentity(t *testing.T) {
	cases := []struct {
		name  string
		train func() *Network
		want  uint64
	}{
		{"bloom-3-8-2-adam-b64", func() *Network {
			// 4 batches per epoch, the last one short: 50 epochs = 200 steps.
			rng := rand.New(rand.NewSource(1))
			net := NewMLP(rng, MLPConfig{In: 3, Hidden: []int{8}, Out: 2})
			x, y := fixedData(2, 200, 3, 2)
			NewTrainer(net, NewSoftmaxCrossEntropy(), NewAdam(0.01), rng).
				Fit(x, y, TrainConfig{Epochs: 50, BatchSize: 64})
			return net
		}, 0x82d2c1590a559adf},
		{"job-6-24-3-sgd-b16", func() *Network {
			rng := rand.New(rand.NewSource(3))
			net := NewMLP(rng, MLPConfig{In: 6, Hidden: []int{24}, Out: 3})
			x, y := fixedData(4, 160, 6, 3)
			NewTrainer(net, NewSoftmaxCrossEntropy(), NewSGD(0.1), rng).
				Fit(x, y, TrainConfig{Epochs: 20, BatchSize: 16})
			return net
		}, 0x477bc80bd43f056},
		{"worker-5-16-3-computegrad-b8", func() *Network {
			rng := rand.New(rand.NewSource(5))
			net := NewMLP(rng, MLPConfig{In: 5, Hidden: []int{16}, Out: 3})
			x, y := fixedData(6, 40, 5, 3)
			tr := NewTrainer(net, NewSoftmaxCrossEntropy(), NewSGD(0.1), rng)
			for s := 0; s < 200; s++ {
				lo := (s % 5) * 8
				bx := tensor.FromSlice(x.Data[lo*5:(lo+8)*5], 8, 5)
				by := tensor.FromSlice(y.Data[lo*3:(lo+8)*3], 8, 3)
				tr.ComputeGrad(bx, by)
				tr.ApplyUpdate()
			}
			return net
		}, 0x91e28af4aabfa6f2},
		{"masked-dense-momentum", func() *Network {
			rng := rand.New(rand.NewSource(7))
			net := NewMLP(rng, MLPConfig{In: 4, Hidden: []int{16}, Out: 3})
			fc0 := net.Layers[0].(*Dense)
			mask := tensor.New(4, 16)
			for i := range mask.Data {
				if i%3 != 0 {
					mask.Data[i] = 1
				}
			}
			if err := fc0.SetMask(mask); err != nil {
				panic(err)
			}
			x, y := fixedData(8, 100, 4, 3)
			NewTrainer(net, NewSoftmaxCrossEntropy(), NewMomentum(0.05, 0.9), rng).
				Fit(x, y, TrainConfig{Epochs: 50, BatchSize: 25})
			return net
		}, 0x76caff3567e83e59},
		{"batchnorm-dropout-adam", func() *Network {
			rng := rand.New(rand.NewSource(9))
			net := NewMLP(rng, MLPConfig{In: 4, Hidden: []int{16, 8}, Out: 3, Dropout: 0.2, BatchNm: true})
			x, y := fixedData(10, 120, 4, 3)
			NewTrainer(net, NewSoftmaxCrossEntropy(), NewAdam(0.01), rng).
				Fit(x, y, TrainConfig{Epochs: 50, BatchSize: 32})
			return net
		}, 0x7fd42454d4d3f7a1},
	}
	for _, c := range cases {
		if got := paramHash(c.train()); got != c.want {
			t.Errorf("%s: param hash %#x, want %#x", c.name, got, c.want)
		}
	}
}

// stepFixture builds the perfbench ladder's step fixture: an MLP of the
// given shape with a trainer and one fixed batch.
func stepFixture(seed int64, arch MLPConfig, batch int, opt Optimizer) (*Trainer, *tensor.Tensor, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	net := NewMLP(rng, arch)
	x, y := fixedData(seed+1, batch, arch.In, arch.Out)
	return NewTrainer(net, NewSoftmaxCrossEntropy(), opt, rng), x, y
}

var (
	bloomArch  = MLPConfig{In: 3, Hidden: []int{8}, Out: 2}
	jobArch    = MLPConfig{In: 6, Hidden: []int{24}, Out: 3}
	workerArch = MLPConfig{In: 5, Hidden: []int{16}, Out: 3}
)

// After the first step has sized every workspace, a training step at the
// learned-Bloom shape and a gradient at the elastic-worker shape allocate
// nothing (the bound leaves one allocation of slack).
func TestTrainerStepAllocs(t *testing.T) {
	tr, x, y := stepFixture(1, bloomArch, 64, NewAdam(0.01))
	tr.Step(x, y)
	if a := testing.AllocsPerRun(200, func() { tr.Step(x, y) }); a > 1 {
		t.Errorf("Step at 3-8-2 batch 64: %.1f allocs, want <= 1", a)
	}
	tr, x, y = stepFixture(2, workerArch, 8, NewSGD(0.1))
	tr.ComputeGrad(x, y)
	if a := testing.AllocsPerRun(200, func() { tr.ComputeGrad(x, y) }); a > 1 {
		t.Errorf("ComputeGrad at 5-16-3 batch 8: %.1f allocs, want <= 1", a)
	}
}

// Inference-mode results are caller-owned: two Forward calls on the same
// network return distinct storage, before and after training-mode calls.
func TestInferenceForwardDoesNotAlias(t *testing.T) {
	tr, x, y := stepFixture(3, MLPConfig{In: 3, Hidden: []int{8, 8}, Out: 2}, 16, NewSGD(0.1))
	net := tr.Net
	check := func(when string) {
		a := net.Forward(x, false)
		want := a.Clone()
		b := net.Forward(x, false)
		if &a.Data[0] == &b.Data[0] {
			t.Fatalf("%s: inference outputs share storage", when)
		}
		b.Fill(math.NaN())
		if !tensor.Equal(a, want, 0) {
			t.Fatalf("%s: writing one inference output changed the other", when)
		}
		if p := net.Forward(x, true); &p.Data[0] == &a.Data[0] {
			t.Fatalf("%s: training output shares storage with an inference output", when)
		}
	}
	check("fresh network")
	tr.Step(x, y)
	tr.Step(x, y)
	check("after training")
}
