package nn

import (
	"fmt"
	"math"

	"dlsys/internal/tensor"
)

// Loss computes a scalar training loss from a batch of network outputs and
// targets, and the gradient of that loss with respect to the outputs.
type Loss interface {
	// Forward returns the mean loss over the batch.
	Forward(pred, target *tensor.Tensor) float64
	// Backward returns dL/dpred for the most recent Forward.
	Backward() *tensor.Tensor
}

// SoftmaxCrossEntropy fuses a softmax over logits with the cross-entropy
// loss against one-hot (or soft) target rows. The fused backward pass is the
// numerically-stable (p - t)/batch. Like a layer in training mode, the loss
// owns the tensors Probs and Backward return: the next Forward or Backward
// overwrites them.
type SoftmaxCrossEntropy struct {
	probs, target *tensor.Tensor
	grad          *tensor.Tensor // Backward's workspace
}

// NewSoftmaxCrossEntropy creates the fused softmax + cross-entropy loss.
func NewSoftmaxCrossEntropy() *SoftmaxCrossEntropy { return &SoftmaxCrossEntropy{} }

// Forward implements Loss. target rows must sum to 1 (one-hot or soft).
func (l *SoftmaxCrossEntropy) Forward(logits, target *tensor.Tensor) float64 {
	if logits.Rank() != 2 {
		panic("nn: Softmax requires rank-2 logits")
	}
	l.probs = workspace(l.probs, logits.Dim(0), logits.Dim(1))
	softmaxInto(l.probs, logits)
	l.target = target
	m := logits.Dim(0)
	var loss float64
	for i := range l.probs.Data {
		if t := target.Data[i]; t > 0 {
			loss -= t * math.Log(math.Max(l.probs.Data[i], 1e-300))
		}
	}
	return loss / float64(m)
}

// Backward implements Loss: (p − t), then scaled by 1/batch.
func (l *SoftmaxCrossEntropy) Backward() *tensor.Tensor {
	if !l.target.SameShape(l.probs) {
		panic(&tensor.Error{Op: "SoftmaxCrossEntropy", Msg: fmt.Sprintf("target shape %v, logits shape %v", l.target.Shape(), l.probs.Shape())})
	}
	m := l.probs.Dim(0)
	l.grad = workspaceLike(l.grad, l.probs)
	for i, p := range l.probs.Data {
		l.grad.Data[i] = p - l.target.Data[i]
	}
	l.grad.ScaleInPlace(1 / float64(m))
	return l.grad
}

// Probs returns the softmax probabilities from the last Forward.
func (l *SoftmaxCrossEntropy) Probs() *tensor.Tensor { return l.probs }

// MSE is the mean squared error loss, 1/(2·batch)·Σ(pred−target)², whose
// gradient is (pred−target)/batch.
type MSE struct {
	diff *tensor.Tensor
}

// NewMSE creates a mean-squared-error loss.
func NewMSE() *MSE { return &MSE{} }

// Forward implements Loss.
func (l *MSE) Forward(pred, target *tensor.Tensor) float64 {
	l.diff = tensor.Sub(pred, target)
	m := pred.Dim(0)
	var s float64
	for _, v := range l.diff.Data {
		s += v * v
	}
	return s / (2 * float64(m))
}

// Backward implements Loss.
func (l *MSE) Backward() *tensor.Tensor {
	m := l.diff.Dim(0)
	return tensor.Scale(1/float64(m), l.diff)
}

// DistillLoss mixes hard-label cross-entropy with a soft-target term at
// temperature T, following Hinton et al.: L = α·CE(hard) + (1−α)·T²·CE(soft).
// The T² factor keeps gradient magnitudes comparable across temperatures.
type DistillLoss struct {
	Alpha, T   float64
	hard, soft *SoftmaxCrossEntropy
	logits     *tensor.Tensor
}

// NewDistillLoss creates a distillation loss with hard-label weight alpha
// and temperature T.
func NewDistillLoss(alpha, T float64) *DistillLoss {
	return &DistillLoss{Alpha: alpha, T: T, hard: NewSoftmaxCrossEntropy(), soft: NewSoftmaxCrossEntropy()}
}

// ForwardDistill computes the mixed loss. hardTarget is one-hot;
// teacherProbs are the teacher's temperature-softened probabilities.
func (l *DistillLoss) ForwardDistill(logits, hardTarget, teacherProbs *tensor.Tensor) float64 {
	l.logits = logits
	lh := l.hard.Forward(logits, hardTarget)
	ls := l.soft.Forward(tensor.Scale(1/l.T, logits), teacherProbs)
	return l.Alpha*lh + (1-l.Alpha)*l.T*l.T*ls
}

// Backward returns the gradient of the mixed loss w.r.t. the logits.
func (l *DistillLoss) Backward() *tensor.Tensor {
	gh := l.hard.Backward()
	gs := l.soft.Backward()
	// d(softened logits)/d(logits) contributes 1/T; with the T² scale the
	// soft term's gradient w.r.t. raw logits carries a net factor of T.
	out := tensor.Scale(l.Alpha, gh)
	out.AxpyInPlace((1-l.Alpha)*l.T, gs)
	return out
}
