package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkKernelHold runs the classic hold model: q events pending, each
// executed event schedules one successor at an exponential delay, so the
// queue depth stays at q. One op is one Step; allocs/op is allocations per
// event.
func BenchmarkKernelHold(b *testing.B) {
	for _, bc := range []struct {
		name string
		q    int
	}{{"q1e3", 1_000}, {"q1e5", 100_000}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			delays := make([]float64, 4096)
			for i := range delays {
				delays[i] = rng.ExpFloat64()
			}
			k := New()
			a := k.Actor("hold")
			i := 0
			var fn func(float64)
			fn = func(float64) {
				i++
				a.After(delays[i&4095], fn)
			}
			for j := 0; j < bc.q; j++ {
				a.At(delays[j&4095]*rng.Float64(), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				k.Step()
			}
		})
	}
}
