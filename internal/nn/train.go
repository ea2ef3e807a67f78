package nn

import (
	"math/rand"

	"dlsys/internal/tensor"
)

// TrainConfig controls a training run.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	Schedule  LRSchedule // nil keeps the optimizer's LR untouched
	// OnEpochEnd, when non-nil, is invoked after each epoch with the epoch
	// index and the mean training loss; ensembles use it to take snapshots.
	OnEpochEnd func(epoch int, loss float64)
	// Silent reserved for future logging; the trainer never prints.
	Silent bool
}

// TrainStats summarises a completed training run with the resource metrics
// Part 1 of the tutorial is organised around.
type TrainStats struct {
	EpochLoss []float64 // mean loss per epoch
	Steps     int       // optimizer steps taken
	FLOPs     int64     // total estimated FLOPs (forward+backward)
	Examples  int64     // examples processed
}

// FinalLoss returns the last epoch's mean loss (0 if no epochs ran).
func (s TrainStats) FinalLoss() float64 {
	if len(s.EpochLoss) == 0 {
		return 0
	}
	return s.EpochLoss[len(s.EpochLoss)-1]
}

// Trainer runs mini-batch gradient descent on a network.
type Trainer struct {
	Net  *Network
	Loss Loss
	Opt  Optimizer
	RNG  *rand.Rand

	// params caches Net's parameter list (taken on first use, retaken if
	// Net is replaced); bx and by are Fit's reused batch buffers.
	params    []*Param
	paramsNet *Network
	bx, by    *tensor.Tensor
}

// NewTrainer wires a network, loss, and optimizer together. The RNG drives
// batch shuffling only.
func NewTrainer(net *Network, loss Loss, opt Optimizer, rng *rand.Rand) *Trainer {
	return &Trainer{Net: net, Loss: loss, Opt: opt, RNG: rng}
}

// Fit trains on inputs x (rank ≥ 2, leading axis = examples) against targets
// y (rank-2, same leading axis) for the configured number of epochs.
func (t *Trainer) Fit(x, y *tensor.Tensor, cfg TrainConfig) TrainStats {
	n := x.Dim(0)
	bs := cfg.BatchSize
	if bs <= 0 || bs > n {
		bs = n
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var stats TrainStats
	// The backward pass costs roughly 2× the forward pass.
	flopsPerStep := 3 * t.Net.FLOPs(bs)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.Schedule != nil {
			t.Opt.SetLR(cfg.Schedule(epoch))
		}
		t.RNG.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		var epochLoss float64
		batches := 0
		for start := 0; start < n; start += bs {
			end := start + bs
			if end > n {
				end = n
			}
			t.bx, t.by = gatherBatchInto(t.bx, t.by, x, y, perm[start:end])
			epochLoss += t.Step(t.bx, t.by)
			batches++
			stats.Steps++
			stats.FLOPs += flopsPerStep * int64(end-start) / int64(bs)
			stats.Examples += int64(end - start)
		}
		epochLoss /= float64(batches)
		stats.EpochLoss = append(stats.EpochLoss, epochLoss)
		if cfg.OnEpochEnd != nil {
			cfg.OnEpochEnd(epoch, epochLoss)
		}
	}
	return stats
}

// Step runs one forward/backward/update on a single batch and returns the
// batch loss.
func (t *Trainer) Step(bx, by *tensor.Tensor) float64 {
	loss := t.ComputeGrad(bx, by)
	t.ApplyUpdate()
	return loss
}

// ApplyUpdate applies the optimizer to the gradients currently accumulated
// on the network and restores layer invariants. Supervised training loops
// (guard.Trainer) split Step into ComputeGrad + ApplyUpdate so they can
// inspect — and possibly discard — gradients before they touch parameters.
func (t *Trainer) ApplyUpdate() {
	t.Opt.Step(t.paramList())
	t.Net.PostStep()
}

// ComputeGrad runs one forward/backward on a batch without updating
// parameters, leaving gradients accumulated on the network. Distributed
// training uses this to obtain per-worker gradients. Returns the loss.
func (t *Trainer) ComputeGrad(bx, by *tensor.Tensor) float64 {
	for _, p := range t.paramList() {
		p.ZeroGrad()
	}
	out := t.Net.Forward(bx, true)
	loss := t.Loss.Forward(out, by)
	t.Net.backwardParams(t.Loss.Backward())
	return loss
}

// paramList returns Net's parameters, rebuilding the list only when Net
// has been replaced. A network's layers must not change once training
// starts.
func (t *Trainer) paramList() []*Param {
	if t.paramsNet != t.Net {
		t.params, t.paramsNet = t.Net.Params(), t.Net
	}
	return t.params
}

// gatherBatchInto copies the selected example indices of x and y into
// batch tensors, reusing bx and by when they already have the batch's
// shapes. x may be rank 2 (tabular) or rank 4 (images).
func gatherBatchInto(bx, by, x, y *tensor.Tensor, idx []int) (*tensor.Tensor, *tensor.Tensor) {
	exSize := x.Size() / x.Dim(0)
	if bx == nil || bx.Dim(0) != len(idx) || !sameDims(bx.Shape()[1:], x.Shape()[1:]) {
		bx = tensor.New(append([]int{len(idx)}, x.Shape()[1:]...)...)
	}
	for bi, i := range idx {
		copy(bx.Data[bi*exSize:(bi+1)*exSize], x.Data[i*exSize:(i+1)*exSize])
	}
	ySize := y.Dim(1)
	by = workspace(by, len(idx), ySize)
	for bi, i := range idx {
		copy(by.Data[bi*ySize:(bi+1)*ySize], y.Data[i*ySize:(i+1)*ySize])
	}
	return bx, by
}

// GatherBatch is the exported form of batch gathering for packages that
// orchestrate their own training loops (distributed, ensembles).
func GatherBatch(x, y *tensor.Tensor, idx []int) (*tensor.Tensor, *tensor.Tensor) {
	return gatherBatchInto(nil, nil, x, y, idx)
}

// OneHot encodes integer labels as one-hot rows with the given class count.
func OneHot(labels []int, classes int) *tensor.Tensor {
	out := tensor.New(len(labels), classes)
	for i, l := range labels {
		out.Data[i*classes+l] = 1
	}
	return out
}
