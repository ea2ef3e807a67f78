package serve

import "testing"

// BenchmarkFleetDay runs one small overload day per op: the shared fleet
// scenario (ρ=0.8 with a ×4 flash crowd, full control plane) at 60k
// requests. It reports host ns per simulated request beside allocs/op, the
// figure the allocation-free event loop keeps near zero.
func BenchmarkFleetDay(b *testing.B) {
	cfg := fleetScenario(21, 60000, true)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		f, err := NewFleet(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res := f.Run(); res.Served+res.Shed+res.Failed != res.Requests {
			b.Fatalf("finalized %d of %d requests", res.Served+res.Shed+res.Failed, res.Requests)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cfg.Requests), "ns/req")
}
