package nn

import "testing"

// BenchmarkTrainerStep times one optimizer step (or, for the worker, one
// gradient) at the shapes the composed experiments train: the livedb
// learned-Bloom classifier, the chaos day's job model and an elastic
// ring worker.
func BenchmarkTrainerStep(b *testing.B) {
	for _, c := range []struct {
		name     string
		arch     MLPConfig
		batch    int
		opt      func() Optimizer
		gradOnly bool
	}{
		{"bloom", bloomArch, 64, func() Optimizer { return NewAdam(0.01) }, false},
		{"job", jobArch, 16, func() Optimizer { return NewSGD(0.1) }, false},
		{"worker", workerArch, 8, func() Optimizer { return NewSGD(0.1) }, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			tr, x, y := stepFixture(1, c.arch, c.batch, c.opt())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.gradOnly {
					tr.ComputeGrad(x, y)
				} else {
					tr.Step(x, y)
				}
			}
		})
	}
}
