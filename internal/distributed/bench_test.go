package distributed

import (
	"math/rand"
	"testing"

	"dlsys/internal/data"
	"dlsys/internal/device"
	"dlsys/internal/nn"
	"dlsys/internal/robust"
)

// BenchmarkSyncRound times one synchronous round (compute, screening,
// upload, aggregation, download, update) driven as a kernel event, at the
// shapes the composed experiments run: the chaos day's parameter-server
// star with coordinate-wise median, and the elastic ring.
func BenchmarkSyncRound(b *testing.B) {
	for _, c := range []struct {
		name     string
		cfg      Config
		examples int
	}{
		{"star", Config{
			Workers: 8, Arch: nn.MLPConfig{In: 6, Hidden: []int{24}, Out: 3},
			BatchSize: 16, LR: 0.1, AveragePeriod: 1, Aggregator: robust.CoordMedian{},
		}, 384},
		{"ring", Config{
			Workers: 64, Arch: nn.MLPConfig{In: 5, Hidden: []int{16}, Out: 3},
			BatchSize: 8, LR: 0.1, AveragePeriod: 1, Topology: TopoRing, Device: device.ClusterNode,
		}, 64 * 16},
	} {
		b.Run(c.name, func(b *testing.B) {
			ds := data.GaussianMixture(rand.New(rand.NewSource(1)), c.examples, c.cfg.Arch.In, 3, 3.2)
			cfg := c.cfg
			cfg.Epochs = b.N // at least one round per iteration
			j, err := NewJob(1, ds.X, nn.OneHot(ds.Labels, 3), cfg)
			if err != nil {
				b.Fatal(err)
			}
			j.Start()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j.k.Step()
			}
		})
	}
}
