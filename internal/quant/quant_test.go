package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dlsys/internal/data"
	"dlsys/internal/nn"
	"dlsys/internal/tensor"
)

// mustLinear and mustKMeans unwrap the error returns for the in-range
// widths these tests use.
func mustLinear(t *testing.T, x *tensor.Tensor, bits int) *Linear {
	t.Helper()
	q, err := QuantizeLinear(x, bits)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func mustKMeans(t *testing.T, rng *rand.Rand, x *tensor.Tensor, k, iters int) *Codebook {
	t.Helper()
	q, err := QuantizeKMeans(rng, x, k, iters)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestQuantizeLinearErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandNormal(rng, 0, 2, 50, 20)
	for _, bits := range []int{1, 2, 4, 8, 16} {
		q := mustLinear(t, x, bits)
		back := q.Dequantize()
		bound := q.MaxError() + 1e-12
		for i := range x.Data {
			if e := math.Abs(x.Data[i] - back.Data[i]); e > bound {
				t.Fatalf("bits=%d: error %g exceeds bound %g", bits, e, bound)
			}
		}
	}
}

func TestQuantizeLinearMonotoneErrorInBits(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.RandNormal(rng, 0, 1, 100, 10)
	prev := math.Inf(1)
	for _, bits := range []int{1, 2, 4, 8} {
		q := mustLinear(t, x, bits)
		back := q.Dequantize()
		var mse float64
		for i := range x.Data {
			d := x.Data[i] - back.Data[i]
			mse += d * d
		}
		if mse >= prev {
			t.Fatalf("MSE not decreasing with bits: %g at %d bits (prev %g)", mse, bits, prev)
		}
		prev = mse
	}
}

func TestQuantizeLinearConstantTensor(t *testing.T) {
	x := tensor.Full(3.14, 4, 4)
	q := mustLinear(t, x, 8)
	back := q.Dequantize()
	if !tensor.Equal(x, back, 1e-12) {
		t.Fatal("constant tensor should reconstruct exactly")
	}
}

func TestQuantizeLinearBytesScaleWithBits(t *testing.T) {
	x := tensor.New(1000)
	b8 := mustLinear(t, x, 8).Bytes()
	b4 := mustLinear(t, x, 4).Bytes()
	b1 := mustLinear(t, x, 1).Bytes()
	if b8 != 1016 || b4 != 516 || b1 != 141 {
		t.Fatalf("bytes: b8=%d b4=%d b1=%d", b8, b4, b1)
	}
}

func TestQuantizeLinearPropertyQuick(t *testing.T) {
	f := func(vals []float64, bitsRaw uint8) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		bits := int(bitsRaw%16) + 1
		x := tensor.FromSlice(append([]float64(nil), vals...), len(vals))
		q, err := QuantizeLinear(x, bits)
		if err != nil {
			return false
		}
		back := q.Dequantize()
		bound := q.MaxError() * (1 + 1e-9)
		for i := range vals {
			if math.Abs(vals[i]-back.Data[i]) > bound+1e-300 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKMeansCodebookBeatsLinearAtSameBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Bimodal distribution: k-means should place centers at the modes,
	// beating uniform linear levels.
	x := tensor.New(2000)
	for i := range x.Data {
		if i%2 == 0 {
			x.Data[i] = -3 + 0.1*rng.NormFloat64()
		} else {
			x.Data[i] = 5 + 0.1*rng.NormFloat64()
		}
	}
	lin := mustLinear(t, x, 1) // 2 levels
	km := mustKMeans(t, rng, x, 2, 20)
	mse := func(back *tensor.Tensor) float64 {
		var s float64
		for i := range x.Data {
			d := x.Data[i] - back.Data[i]
			s += d * d
		}
		return s
	}
	if mse(km.Dequantize()) >= mse(lin.Dequantize()) {
		t.Fatal("k-means should beat linear quantization on bimodal data")
	}
}

func TestKMeansMoreCentersLowerError(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.RandNormal(rng, 0, 1, 1500)
	var prev float64 = math.Inf(1)
	for _, k := range []int{2, 4, 16, 64} {
		km := mustKMeans(t, rng, x, k, 15)
		back := km.Dequantize()
		var mse float64
		for i := range x.Data {
			d := x.Data[i] - back.Data[i]
			mse += d * d
		}
		if mse >= prev {
			t.Fatalf("k=%d MSE %g did not improve on %g", k, mse, prev)
		}
		prev = mse
	}
}

func TestHuffmanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	codes := make([]uint16, 5000)
	for i := range codes {
		// Skewed distribution so Huffman actually compresses.
		codes[i] = uint16(rng.ExpFloat64() * 3)
	}
	table := mustHuffman(codes)
	packed, bits, err := table.Encode(codes)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) != (bits+7)/8 {
		t.Fatalf("packed %d bytes for %d bits", len(packed), bits)
	}
	decoded, err := table.Decode(packed, len(codes))
	if err != nil {
		t.Fatal(err)
	}
	for i := range codes {
		if decoded[i] != codes[i] {
			t.Fatalf("round trip mismatch at %d: %d != %d", i, decoded[i], codes[i])
		}
	}
	// Skewed data must compress below fixed 16-bit and below 8-bit.
	if bits >= len(codes)*8 {
		t.Fatalf("no compression: %d bits for %d skewed symbols", bits, len(codes))
	}
}

func TestHuffmanSingleSymbol(t *testing.T) {
	codes := []uint16{7, 7, 7, 7}
	table := mustHuffman(codes)
	packed, _, err := table.Encode(codes)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := table.Decode(packed, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decoded {
		if d != 7 {
			t.Fatal("single-symbol round trip failed")
		}
	}
}

func TestHuffmanRoundTripQuick(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		codes := make([]uint16, len(raw))
		for i, b := range raw {
			codes[i] = uint16(b % 17)
		}
		table := mustHuffman(codes)
		packed, _, err := table.Encode(codes)
		if err != nil {
			return false
		}
		decoded, err := table.Decode(packed, len(codes))
		if err != nil {
			return false
		}
		for i := range codes {
			if decoded[i] != codes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// trainSmallMLP trains a small classifier for the network-level tests.
func trainSmallMLP(t *testing.T) (*nn.Network, *data.Dataset, *data.Dataset, nn.MLPConfig) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	ds := data.GaussianMixture(rng, 500, 4, 3, 4)
	train, test := ds.Split(rng, 0.8)
	cfg := nn.MLPConfig{In: 4, Hidden: []int{16}, Out: 3}
	net := nn.NewMLP(rng, cfg)
	tr := nn.NewTrainer(net, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(0.01), rng)
	tr.Fit(train.X, nn.OneHot(train.Labels, 3), nn.TrainConfig{Epochs: 25, BatchSize: 32})
	return net, train, test, cfg
}

func TestQuantizeNetworkPreservesAccuracyAt8Bits(t *testing.T) {
	net, _, test, cfg := trainSmallMLP(t)
	base := net.Accuracy(test.X, test.Labels)
	state, bytes, err := QuantizeNetwork(net, 8)
	if err != nil {
		t.Fatal(err)
	}
	qnet := nn.NewMLP(rand.New(rand.NewSource(1)), cfg)
	qnet.LoadStateDict(state)
	qacc := qnet.Accuracy(test.X, test.Labels)
	if qacc < base-0.05 {
		t.Fatalf("8-bit accuracy dropped: %.3f vs %.3f", qacc, base)
	}
	if bytes >= net.ParamBytes(32) {
		t.Fatalf("8-bit model (%d B) not smaller than float32 (%d B)", bytes, net.ParamBytes(32))
	}
}

func TestIntMLPMatchesFloatAccuracy(t *testing.T) {
	net, _, test, _ := trainSmallMLP(t)
	base := net.Accuracy(test.X, test.Labels)
	im := CompileIntMLP(net)
	iacc := im.Accuracy(test.X, test.Labels)
	if iacc < base-0.05 {
		t.Fatalf("int8 inference accuracy %.3f vs float %.3f", iacc, base)
	}
	if im.Bytes() >= net.ParamBytes(32) {
		t.Fatalf("int8 model not smaller: %d vs %d", im.Bytes(), net.ParamBytes(32))
	}
}

func TestIntMLPForwardCloseToFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := nn.NewMLP(rng, nn.MLPConfig{In: 5, Hidden: []int{8}, Out: 3})
	im := CompileIntMLP(net)
	x := tensor.RandNormal(rng, 0, 1, 10, 5)
	fo := net.Forward(x, false)
	io := im.Forward(x)
	// Relative agreement within a few percent of the dynamic range.
	scale := fo.AbsMax()
	for i := range fo.Data {
		if math.Abs(fo.Data[i]-io.Data[i]) > 0.05*scale+1e-6 {
			t.Fatalf("int path diverges at %d: %g vs %g", i, io.Data[i], fo.Data[i])
		}
	}
}

func TestQuantizeBadRangesReturnErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := tensor.RandNormal(rng, 0, 1, 4, 4)
	for _, bits := range []int{0, -1, 17, 32} {
		if _, err := QuantizeLinear(x, bits); err == nil {
			t.Fatalf("bits=%d accepted", bits)
		}
	}
	for _, k := range []int{0, 1, 65537} {
		if _, err := QuantizeKMeans(rng, x, k, 5); err == nil {
			t.Fatalf("k=%d accepted", k)
		}
	}
	net := nn.NewMLP(rng, nn.MLPConfig{In: 3, Hidden: []int{4}, Out: 2})
	if _, _, err := QuantizeNetwork(net, 0); err == nil {
		t.Fatal("QuantizeNetwork accepted bits=0")
	}
	if _, _, err := QuantizeNetworkKMeans(rng, net, 1, 5); err == nil {
		t.Fatal("QuantizeNetworkKMeans accepted k=1")
	}
}
