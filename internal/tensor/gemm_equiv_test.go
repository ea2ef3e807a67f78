package tensor

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// The kernel-equivalence suite: every faster tier of the GEMM hierarchy is
// pinned bit-exactly to the serial float64 reference across the edge
// shapes that exercise tile remainders, single rows, and degenerate
// dimensions.

// equivShapes covers 1×1, m=1, tile-multiple and non-multiple dims, the
// AVX 8-row boundary, and shapes spanning the usePacked threshold.
var equivShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 5},
	{2, 3, 4},
	{4, 4, 4},
	{5, 5, 5},
	{7, 9, 3},
	{8, 8, 8},
	{8, 33, 4},
	{9, 17, 9},
	{12, 64, 12},
	{16, 16, 16},
	{17, 31, 13},
	{23, 64, 41},
	{32, 32, 32},
	{33, 65, 29},
	{48, 100, 48},
	{64, 64, 64},
	{65, 129, 67},
	{129, 65, 33},
}

func randMat(rng *rand.Rand, r, c int) *Tensor {
	t := New(r, c)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

func TestGEMMTiersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, s := range equivShapes {
		a := randMat(rng, s.m, s.k)
		b := randMat(rng, s.k, s.n)
		ref := MatMulRef(a, b)
		if got := MatMulTiled(a, b); !Equal(got, ref, 0) {
			t.Errorf("tiled != reference at %dx%dx%d", s.m, s.k, s.n)
		}
		if got := MatMul(a, b); !Equal(got, ref, 0) {
			t.Errorf("auto != reference at %dx%dx%d", s.m, s.k, s.n)
		}
	}
}

func TestTransposedKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, s := range equivShapes {
		a := randMat(rng, s.m, s.k)
		b := randMat(rng, s.k, s.n)
		ref := MatMulRef(a, b)
		// a · (bᵀ)ᵀ through the fused TransB path.
		if got := MatMulTransB(a, Transpose(b)); !Equal(got, ref, 0) {
			t.Errorf("TransB != reference at %dx%dx%d", s.m, s.k, s.n)
		}
		// (aᵀ)ᵀ · b through the fused TransA path. The large-shape tier
		// re-enters the packed MatMul after an exact transpose, so it too
		// must be bit-identical.
		if got := MatMulTransA(Transpose(a), b); !Equal(got, ref, 0) {
			t.Errorf("TransA != reference at %dx%dx%d", s.m, s.k, s.n)
		}
	}
}

func TestBatMulSlicesMatchMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, s := range []struct{ bt, m, k, n int }{
		{1, 1, 1, 1},
		{2, 5, 7, 3},
		{3, 8, 33, 4},
		{4, 17, 31, 13},
		{2, 64, 64, 64},
		{5, 33, 65, 29},
	} {
		a := New(s.bt, s.m, s.k)
		b := New(s.bt, s.k, s.n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		got := BatMul(a, b)
		for i := 0; i < s.bt; i++ {
			av := FromSlice(a.Data[i*s.m*s.k:(i+1)*s.m*s.k], s.m, s.k)
			bv := FromSlice(b.Data[i*s.k*s.n:(i+1)*s.k*s.n], s.k, s.n)
			want := MatMulRef(av, bv)
			slice := FromSlice(got.Data[i*s.m*s.n:(i+1)*s.m*s.n], s.m, s.n)
			if !Equal(slice, want, 0) {
				t.Errorf("BatMul slice %d != MatMul at %+v", i, s)
			}
		}
	}
}

func TestBatMulRejectsDegenerateShapes(t *testing.T) {
	for _, s := range []struct{ a, b []int }{
		{[]int{0, 2, 3}, []int{0, 3, 2}}, // zero batch
		{[]int{2, 0, 3}, []int{2, 3, 2}}, // zero rows
		{[]int{2, 2, 0}, []int{2, 0, 2}}, // k = 0
		{[]int{2, 2, 3}, []int{2, 3, 0}}, // zero cols
	} {
		if _, err := BatMulChecked(New(s.a...), New(s.b...)); err == nil {
			t.Errorf("BatMulChecked(%v, %v): expected error", s.a, s.b)
		} else if AsError(err) == nil {
			t.Errorf("BatMulChecked(%v, %v): error is not a typed *tensor.Error", s.a, s.b)
		}
	}
	// Rank and conformability errors stay typed too.
	if _, err := BatMulChecked(New(2, 2), New(2, 2, 2)); err == nil {
		t.Error("rank mismatch accepted")
	}
	if _, err := BatMulChecked(New(2, 2, 3), New(3, 3, 2)); err == nil {
		t.Error("batch mismatch accepted")
	}
	if _, err := BatMulChecked(New(2, 2, 3), New(2, 4, 2)); err == nil {
		t.Error("inner mismatch accepted")
	}
}

// MatMul keeps the historical k=0 semantics (a well-formed empty
// contraction yields zeros) even though BatMul rejects it.
func TestMatMulKZeroYieldsZeros(t *testing.T) {
	out := MatMul(New(3, 0), New(0, 4))
	if out.Dim(0) != 3 || out.Dim(1) != 4 || out.AbsMax() != 0 {
		t.Fatalf("k=0 product: %v", out)
	}
}

// Inf/NaN inputs are outside the bit-exactness contract, but every tier
// must still be deterministic: the same call twice gives the same bits.
func TestNonFiniteDeterministicPerTier(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := randMat(rng, 16, 32)
	b := randMat(rng, 32, 16)
	a.Data[5] = math.Inf(1)
	b.Data[7] = math.NaN()
	x := MatMulTiled(a, b)
	y := MatMulTiled(a, b)
	for i := range x.Data {
		if math.Float64bits(x.Data[i]) != math.Float64bits(y.Data[i]) {
			t.Fatalf("tiled kernel nondeterministic at %d", i)
		}
	}
}

// intoOps pairs each allocating product with its Into form. Operands are
// given in the product's own layout: TransA takes a as k×m, TransB takes b
// as n×k.
var intoOps = []struct {
	name  string
	alloc func(a, b *Tensor) *Tensor
	into  func(out, a, b *Tensor) error
	// dims gives the operand shapes (a rows, a cols, b rows, b cols) of
	// an m×k by k×n product.
	dims func(m, k, n int) (int, int, int, int)
}{
	{"MatMul", MatMul, MatMulInto,
		func(m, k, n int) (int, int, int, int) { return m, k, k, n }},
	{"MatMulTransA", MatMulTransA, MatMulTransAInto,
		func(m, k, n int) (int, int, int, int) { return k, m, k, n }},
	{"MatMulTransB", MatMulTransB, MatMulTransBInto,
		func(m, k, n int) (int, int, int, int) { return m, k, n, k }},
}

// intoShapes adds, to the equivalence shapes, products past the parallel
// threshold on both sides of usePacked: a packed pooled product and a
// four-row product that runs the pooled reference kernel.
var intoShapes = append(append([]struct{ m, k, n int }(nil), equivShapes...),
	struct{ m, k, n int }{128, 96, 96},
	struct{ m, k, n int }{4, 512, 520},
)

func sameBits(x, y *Tensor) bool {
	if !x.SameShape(y) {
		return false
	}
	for i := range x.Data {
		if math.Float64bits(x.Data[i]) != math.Float64bits(y.Data[i]) {
			return false
		}
	}
	return true
}

// Each Into form writes exactly the bits its allocating form returns,
// whatever the destination held — NaN or stale non-zero values — on every
// kernel tier, and for non-finite operands too.
func TestIntoMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, op := range intoOps {
		for _, s := range intoShapes {
			for _, poison := range []bool{false, true} {
				ar, ac, br, bc := op.dims(s.m, s.k, s.n)
				a, b := randMat(rng, ar, ac), randMat(rng, br, bc)
				for i := 0; i < len(a.Data); i += 3 {
					a.Data[i] = 0 // exercise the zero-skip of the reference tiers
				}
				if poison {
					a.Data[len(a.Data)/2] = math.Inf(1)
					b.Data[len(b.Data)/3] = math.NaN()
				}
				want := op.alloc(a, b)
				for _, dirty := range []float64{math.NaN(), 7.5} {
					out := Full(dirty, want.Shape()...)
					if err := op.into(out, a, b); err != nil {
						t.Fatalf("%s %v: %v", op.name, s, err)
					}
					if !sameBits(out, want) {
						t.Errorf("%s %v (poisoned %v, dest %v): Into != allocating form", op.name, s, poison, dirty)
					}
				}
			}
		}
	}
}

// A destination of the wrong shape, or one sharing storage with an
// operand, is refused with a typed *Error and left untouched.
func TestIntoRejectsBadOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	sq := randMat(rng, 6, 6)
	other := randMat(rng, 6, 6)
	for _, op := range intoOps {
		// A 3×11 destination whose storage overlaps the last element of a
		// 3×6·6×11 product's left operand.
		ar, ac, br, bc := op.dims(3, 6, 11)
		buf := make([]float64, 60)
		overA := FromSlice(buf[:ar*ac], ar, ac)
		overOut := FromSlice(buf[ar*ac-1:ar*ac-1+33], 3, 11)
		cases := []struct {
			name    string
			out     *Tensor
			a, b    *Tensor
			aliased bool
		}{
			{"too many rows", New(7, 6), sq, other, false},
			{"too few columns", New(6, 5), sq, other, false},
			{"rank 3", New(1, 6, 6), sq, other, false},
			{"out is a", sq, sq, other, true},
			{"out is b", other, sq, other, true},
			{"out overlaps a", overOut, overA, randMat(rng, br, bc), true},
		}
		for _, c := range cases {
			before := c.out.Clone()
			err := op.into(c.out, c.a, c.b)
			var te *Error
			if !errors.As(err, &te) {
				t.Fatalf("%s %s: got %v, want a *tensor.Error", op.name, c.name, err)
			}
			if c.aliased != (te.Msg == "output aliases an operand") {
				t.Errorf("%s %s: unexpected error %v", op.name, c.name, err)
			}
			if !sameBits(c.out, before) {
				t.Errorf("%s %s: rejected call wrote its destination", op.name, c.name)
			}
		}
		// Operand errors come first, as from the allocating form.
		if err := op.into(New(2, 2), New(2, 3), New(4, 2)); err == nil {
			t.Errorf("%s: non-conformable operands accepted", op.name)
		}
	}
}
