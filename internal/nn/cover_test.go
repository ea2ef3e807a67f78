package nn

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"dlsys/internal/tensor"
)

// Exercise the small Layer interface surface (Name, OutputShape,
// ActivationFloats) that other packages rely on for planning.
func TestLayerInterfaceSurface(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}
	layers := []Layer{
		NewDense(rng, "d", 4, 8),
		NewDenseXavier(rng, "dx", 4, 8),
		NewReLU("r"),
		NewSigmoid("s"),
		NewTanh("t"),
		NewBatchNorm("bn", 8),
		mustDropout(NewDropout(rng, "do", 0.1)),
		NewConv2D(rng, "c", g, 3),
		NewMaxPool2D("p", 2, 6, 6, 2),
		NewFlatten("f"),
		NewResidualMLPBlock(rng, "res", 8),
	}
	for _, l := range layers {
		if l.Name() == "" {
			t.Fatalf("%T has empty name", l)
		}
	}
	// OutputShape chains for the MLP-ish layers.
	shapes := map[string][]int{
		"d":   {8},
		"r":   {4},
		"bn":  {4}, // identity over its input shape
		"do":  {4},
		"f":   {12},
		"res": {8},
		"s":   {4},
		"t":   {4},
	}
	for _, l := range layers {
		os, ok := l.(OutputShaper)
		if !ok {
			continue
		}
		if want, ok := shapes[l.Name()]; ok {
			in := []int{4}
			if l.Name() == "f" {
				in = []int{3, 2, 2}
			}
			if l.Name() == "res" {
				in = []int{8}
			}
			got := os.OutputShape(in)
			if len(got) != len(want) || got[0] != want[0] {
				t.Fatalf("%s OutputShape = %v, want %v", l.Name(), got, want)
			}
		}
	}
	// Conv/pool spatial shapes.
	conv := layers[7].(*Conv2D)
	if got := conv.OutputShape([]int{2, 6, 6}); got[0] != 3 || got[1] != 6 || got[2] != 6 {
		t.Fatalf("conv OutputShape %v", got)
	}
	pool := layers[8].(*MaxPool2D)
	if got := pool.OutputShape([]int{2, 6, 6}); got[1] != 3 || got[2] != 3 {
		t.Fatalf("pool OutputShape %v", got)
	}
}

func TestActivationSizers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDense(rng, "d", 4, 8)
	if d.ActivationFloats(16) != 64 {
		t.Fatalf("dense activation floats %d", d.ActivationFloats(16))
	}
	g := tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	c := NewConv2D(rng, "c", g, 2)
	if c.ActivationFloats(2) != int64(2*16*9) {
		t.Fatalf("conv activation floats %d", c.ActivationFloats(2))
	}
	r := NewReLU("r")
	// Before any forward, ReLU reports zero retained floats.
	if r.ActivationFloats(4) != 0 {
		t.Fatal("fresh ReLU should report 0 activation floats")
	}
	r.Forward(tensor.New(4, 8), true)
	if r.ActivationFloats(4) != 32 {
		t.Fatalf("ReLU activation floats %d", r.ActivationFloats(4))
	}
}

func TestDenseMaskAccessorAndBadMask(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDense(rng, "d", 3, 3)
	if d.Mask() != nil {
		t.Fatal("fresh layer should have no mask")
	}
	m := tensor.Full(1, 3, 3)
	if err := d.SetMask(m); err != nil {
		t.Fatalf("SetMask: %v", err)
	}
	if d.Mask() != m {
		t.Fatal("mask accessor broken")
	}
	if err := d.SetMask(nil); err != nil { // clearing is allowed
		t.Fatalf("SetMask(nil): %v", err)
	}
	if err := d.SetMask(tensor.Full(1, 2, 2)); err == nil {
		t.Fatal("expected error on bad mask shape")
	}
}

func TestBackwardWithoutForwardPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for name, fn := range map[string]func(){
		"dense": func() { NewDense(rng, "d", 2, 2).Backward(tensor.New(1, 2)) },
		"bn":    func() { NewBatchNorm("bn", 2).Backward(tensor.New(1, 2)) },
		"conv": func() {
			g := tensor.ConvGeom{InC: 1, InH: 2, InW: 2, KH: 1, KW: 1, Stride: 1, Pad: 0}
			NewConv2D(rng, "c", g, 1).Backward(tensor.New(1, 1, 2, 2))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// A vector of the wrong length — short, long or empty — is rejected with a
// typed error before any parameter or gradient is written.
func TestSetParamVectorLengthMismatchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewMLP(rng, MLPConfig{In: 2, Hidden: []int{2}, Out: 2})
	want := net.NumParams()
	before := net.ParamVector()
	grads := net.GradVector()
	for _, n := range []int{0, 3, want - 1, want + 1} {
		v := make([]float64, n)
		for i := range v {
			v[i] = 7
		}
		for name, set := range map[string]func([]float64) error{
			"SetParamVector": net.SetParamVector,
			"SetGradVector":  net.SetGradVector,
		} {
			err := set(v)
			var le *VectorLengthError
			if !errors.As(err, &le) || le.Fn != name || le.Got != n || le.Want != want {
				t.Fatalf("%s(len %d): got %v, want *VectorLengthError{%s %d %d}", name, n, err, name, n, want)
			}
		}
	}
	if !reflect.DeepEqual(net.ParamVector(), before) || !reflect.DeepEqual(net.GradVector(), grads) {
		t.Fatal("a rejected vector modified the network")
	}
}

func TestDropoutBadRate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, err := NewDropout(rng, "do", 1.0); err == nil {
		t.Fatal("expected error for rate 1.0")
	}
	if _, err := NewDropout(rng, "do", -0.1); err == nil {
		t.Fatal("expected error for negative rate")
	}
}

func TestMLPConfigValidate(t *testing.T) {
	bad := []MLPConfig{
		{In: 0, Out: 2},
		{In: 2, Out: 0},
		{In: 2, Hidden: []int{4, 0}, Out: 2},
		{In: 2, Out: 2, Dropout: 1},
		{In: 2, Out: 2, Dropout: -0.5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %d should fail validation: %+v", i, cfg)
		}
		if _, err := NewMLPChecked(rand.New(rand.NewSource(1)), cfg); err == nil {
			t.Fatalf("NewMLPChecked should reject config %d", i)
		}
	}
	good := MLPConfig{In: 3, Hidden: []int{8}, Out: 2, Dropout: 0.2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	net, err := NewMLPChecked(rand.New(rand.NewSource(1)), good)
	if err != nil || net == nil {
		t.Fatalf("NewMLPChecked: %v", err)
	}
}

func TestNewMLPPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMLP(rand.New(rand.NewSource(1)), MLPConfig{In: 0, Out: 2})
}

// mustDropout unwraps NewDropout in tests where the rate is known-valid.
func mustDropout(d *Dropout, err error) *Dropout {
	if err != nil {
		panic(err)
	}
	return d
}

func TestTrainStatsFinalLossEmpty(t *testing.T) {
	var s TrainStats
	if s.FinalLoss() != 0 {
		t.Fatal("empty stats FinalLoss should be 0")
	}
}
