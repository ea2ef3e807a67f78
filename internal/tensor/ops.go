package tensor

import (
	"math"
	"unsafe"
)

// Add returns t + u element-wise. Shapes must match.
func Add(t, u *Tensor) *Tensor { return zipNew(t, u, func(a, b float64) float64 { return a + b }) }

// Sub returns t - u element-wise. Shapes must match.
func Sub(t, u *Tensor) *Tensor { return zipNew(t, u, func(a, b float64) float64 { return a - b }) }

// Mul returns the element-wise (Hadamard) product t ⊙ u. Shapes must match.
func Mul(t, u *Tensor) *Tensor { return zipNew(t, u, func(a, b float64) float64 { return a * b }) }

// Div returns t / u element-wise. Shapes must match.
func Div(t, u *Tensor) *Tensor { return zipNew(t, u, func(a, b float64) float64 { return a / b }) }

func zipNew(t, u *Tensor, f func(a, b float64) float64) *Tensor {
	must(checkSameShape("zip", t, u))
	out := New(t.shape...)
	for i := range t.Data {
		out.Data[i] = f(t.Data[i], u.Data[i])
	}
	return out
}

// AddInPlace adds u into t element-wise.
func (t *Tensor) AddInPlace(u *Tensor) {
	must(checkSameShape("AddInPlace", t, u))
	for i := range t.Data {
		t.Data[i] += u.Data[i]
	}
}

// AxpyInPlace computes t += alpha*u element-wise.
func (t *Tensor) AxpyInPlace(alpha float64, u *Tensor) {
	must(checkSameShape("AxpyInPlace", t, u))
	for i := range t.Data {
		t.Data[i] += alpha * u.Data[i]
	}
}

// Scale returns alpha * t.
func Scale(alpha float64, t *Tensor) *Tensor {
	out := New(t.shape...)
	for i, v := range t.Data {
		out.Data[i] = alpha * v
	}
	return out
}

// ScaleInPlace multiplies every element of t by alpha.
func (t *Tensor) ScaleInPlace(alpha float64) {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
}

// Apply returns a new tensor with f applied to every element.
func Apply(t *Tensor, f func(float64) float64) *Tensor {
	out := New(t.shape...)
	for i, v := range t.Data {
		out.Data[i] = f(v)
	}
	return out
}

// ApplyInPlace applies f to every element of t.
func (t *Tensor) ApplyInPlace(f func(float64) float64) {
	for i, v := range t.Data {
		t.Data[i] = f(v)
	}
}

// MatMul returns the matrix product of two rank-2 tensors: (m×k)·(k×n) → m×n.
// Small products run the serial reference kernel; products worth blocking
// run the cache-tiled packed kernel (gemm.go), partitioned across the
// persistent worker pool once they cross the parallel threshold. Every
// tier accumulates each output element in the same ascending-k order, so
// for finite inputs all paths are bit-identical to the reference kernel.
func MatMul(a, b *Tensor) *Tensor { return mustT(MatMulChecked(a, b)) }

// MatMulChecked is MatMul returning an error instead of panicking on a
// shape mismatch.
func MatMulChecked(a, b *Tensor) (*Tensor, error) {
	return newInto(MatMulInto, matMulDims, a, b)
}

// MatMulInto is MatMul writing into the caller-owned m×n tensor out,
// whatever out held before. It returns a typed *Error when the operands do
// not conform, when out has the wrong shape, or when out shares storage
// with an operand.
func MatMulInto(out, a, b *Tensor) error {
	if err := checkInto("MatMul", matMulDims, out, a, b); err != nil {
		return err
	}
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if usePacked(m, k, n) {
		bp := getScratch(k * n)
		packB(b, bp)
		gemmAuto(a.Data, m, k, n, bp, out.Data)
		putScratch(bp)
		return nil
	}
	out.Zero()
	if int64(m)*int64(n)*int64(k) >= parallelFLOPThreshold && m >= 2 {
		parallelRows(m, func(lo, hi int) {
			matMulRows(a, b, out, lo, hi)
		})
		return nil
	}
	matMulRows(a, b, out, 0, m)
	return nil
}

// matMulDims validates a·b and returns the output shape.
func matMulDims(a, b *Tensor) (m, n int, err error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return 0, 0, errf("MatMul", "requires rank-2 operands, got %v and %v", a.shape, b.shape)
	}
	if a.shape[1] != b.shape[0] {
		return 0, 0, errf("MatMul", "inner dimension mismatch %v · %v", a.shape, b.shape)
	}
	return a.shape[0], b.shape[1], nil
}

// matMulRows computes output rows [lo, hi) of a·b into out, which must be
// zeroed. It is the reference kernel of the GEMM hierarchy (see gemm.go):
// i-k-j order, one memory accumulator per output element, ascending k.
func matMulRows(a, b, out *Tensor, lo, hi int) {
	k, n := a.shape[1], b.shape[1]
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MatMulTransB returns a · bᵀ for rank-2 tensors: (m×k)·(n×k)ᵀ → m×n.
// Used by backward passes to avoid materialising transposes. Large
// products run fused through the tiled engine: the packing pass reads b's
// rows directly (they are already the columns the kernel wants), so the
// transpose is free.
func MatMulTransB(a, b *Tensor) *Tensor { return mustT(MatMulTransBChecked(a, b)) }

// MatMulTransBChecked is MatMulTransB returning an error instead of
// panicking on a shape mismatch.
func MatMulTransBChecked(a, b *Tensor) (*Tensor, error) {
	return newInto(MatMulTransBInto, matMulTransBDims, a, b)
}

// MatMulTransBInto is MatMulTransB writing into the caller-owned m×n
// tensor out, with MatMulInto's error contract.
func MatMulTransBInto(out, a, b *Tensor) error {
	if err := checkInto("MatMulTransB", matMulTransBDims, out, a, b); err != nil {
		return err
	}
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	if usePacked(m, k, n) {
		bp := getScratch(k * n)
		packBTrans(b, bp)
		gemmAuto(a.Data, m, k, n, bp, out.Data)
		putScratch(bp)
		return nil
	}
	// The small path multiplies through (no zero skip) and stores each
	// dot product, so out needs no clearing.
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			var s float64
			for p, av := range arow {
				s += av * brow[p]
			}
			orow[j] = s
		}
	}
	return nil
}

// matMulTransBDims validates a·bᵀ and returns the output shape.
func matMulTransBDims(a, b *Tensor) (m, n int, err error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return 0, 0, errf("MatMulTransB", "requires rank-2 operands, got %v and %v", a.shape, b.shape)
	}
	if a.shape[1] != b.shape[1] {
		return 0, 0, errf("MatMulTransB", "inner dimension mismatch %v · %vᵀ", a.shape, b.shape)
	}
	return a.shape[0], b.shape[0], nil
}

// MatMulTransA returns aᵀ · b for rank-2 tensors: (k×m)ᵀ·(k×n) → m×n.
// Large products run through the tiled engine after materialising aᵀ (an
// exact element move costing O(k·m), negligible against the O(m·k·n)
// product it unlocks).
func MatMulTransA(a, b *Tensor) *Tensor { return mustT(MatMulTransAChecked(a, b)) }

// MatMulTransAChecked is MatMulTransA returning an error instead of
// panicking on a shape mismatch.
func MatMulTransAChecked(a, b *Tensor) (*Tensor, error) {
	return newInto(MatMulTransAInto, matMulTransADims, a, b)
}

// MatMulTransAInto is MatMulTransA writing into the caller-owned m×n
// tensor out, with MatMulInto's error contract.
func MatMulTransAInto(out, a, b *Tensor) error {
	if err := checkInto("MatMulTransA", matMulTransADims, out, a, b); err != nil {
		return err
	}
	k, m := a.shape[0], a.shape[1]
	n := b.shape[1]
	if usePacked(m, k, n) {
		at := getScratch(m * k)
		transposeInto(at, a)
		err := MatMulInto(out, &Tensor{shape: []int{m, k}, Data: at}, b)
		putScratch(at)
		return err
	}
	out.Zero()
	for p := 0; p < k; p++ {
		arow := a.Data[p*m : (p+1)*m]
		brow := b.Data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return nil
}

// matMulTransADims validates aᵀ·b and returns the output shape.
func matMulTransADims(a, b *Tensor) (m, n int, err error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return 0, 0, errf("MatMulTransA", "requires rank-2 operands, got %v and %v", a.shape, b.shape)
	}
	if a.shape[0] != b.shape[0] {
		return 0, 0, errf("MatMulTransA", "inner dimension mismatch %vᵀ · %v", a.shape, b.shape)
	}
	return a.shape[1], b.shape[1], nil
}

// newInto is the allocating form of a product: it validates the operands,
// allocates the output and fills it with into.
func newInto(into func(out, a, b *Tensor) error, dims func(a, b *Tensor) (int, int, error), a, b *Tensor) (*Tensor, error) {
	m, n, err := dims(a, b)
	if err != nil {
		return nil, err
	}
	out := New(m, n)
	if err := into(out, a, b); err != nil {
		return nil, err
	}
	return out, nil
}

// checkInto validates an Into call: conformable operands, an out of the
// product's shape, and no storage shared between out and an operand (the
// kernels read operands while writing out).
func checkInto(op string, dims func(a, b *Tensor) (int, int, error), out, a, b *Tensor) error {
	m, n, err := dims(a, b)
	if err != nil {
		return err
	}
	if out.Rank() != 2 || out.shape[0] != m || out.shape[1] != n {
		return errf(op, "output shape %v, want [%d %d]", out.shape, m, n)
	}
	if overlaps(out.Data, a.Data) || overlaps(out.Data, b.Data) {
		return errf(op, "output aliases an operand")
	}
	return nil
}

// overlaps reports whether two slices share any element of storage.
func overlaps(x, y []float64) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	const size = unsafe.Sizeof(float64(0))
	x0 := uintptr(unsafe.Pointer(unsafe.SliceData(x)))
	y0 := uintptr(unsafe.Pointer(unsafe.SliceData(y)))
	return x0 < y0+uintptr(len(y))*size && y0 < x0+uintptr(len(x))*size
}

// Transpose returns the transpose of a rank-2 tensor.
func Transpose(t *Tensor) *Tensor {
	if t.Rank() != 2 {
		panic(errf("Transpose", "requires rank 2, got %v", t.shape))
	}
	out := New(t.shape[1], t.shape[0])
	transposeInto(out.Data, t)
	return out
}

// transposeInto writes the transpose of the rank-2 tensor t into dst.
func transposeInto(dst []float64, t *Tensor) {
	m, n := t.shape[0], t.shape[1]
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			dst[j*m+i] = t.Data[i*n+j]
		}
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// Max returns the largest element. It panics on an empty tensor.
func (t *Tensor) Max() float64 {
	if len(t.Data) == 0 {
		panic(errf("Max", "empty tensor"))
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the smallest element. It panics on an empty tensor.
func (t *Tensor) Min() float64 {
	if len(t.Data) == 0 {
		panic(errf("Min", "empty tensor"))
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// AbsMax returns the largest absolute value, or 0 for an empty tensor.
func (t *Tensor) AbsMax() float64 {
	var m float64
	for _, v := range t.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Norm2 returns the Euclidean (Frobenius) norm.
func (t *Tensor) Norm2() float64 {
	var s float64
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// ArgMaxRow returns the index of the maximum value in row i of a rank-2
// tensor, breaking ties toward the lower index.
func (t *Tensor) ArgMaxRow(i int) int {
	row := t.Row(i)
	best := 0
	for j := 1; j < len(row); j++ {
		if row[j] > row[best] {
			best = j
		}
	}
	return best
}

// SumRows reduces a rank-2 tensor over its rows, returning a 1×n tensor
// where out[j] = Σ_i t[i,j]. Used for bias gradients.
func SumRows(t *Tensor) *Tensor {
	if t.Rank() != 2 {
		panic(errf("SumRows", "requires rank 2, got %v", t.shape))
	}
	out := New(1, t.shape[1])
	SumRowsInto(out, t)
	return out
}

// SumRowsInto is SumRows overwriting the caller-owned 1×n tensor out.
func SumRowsInto(out, t *Tensor) {
	if t.Rank() != 2 || out.Rank() != 2 || out.shape[0] != 1 || out.shape[1] != t.shape[1] {
		panic(errf("SumRows", "shapes %v, %v", out.shape, t.shape))
	}
	m, n := t.shape[0], t.shape[1]
	out.Zero()
	for i := 0; i < m; i++ {
		row := t.Data[i*n : (i+1)*n]
		for j, v := range row {
			out.Data[j] += v
		}
	}
}

// AddRowVector adds a 1×n row vector to every row of an m×n tensor,
// returning a new tensor (broadcast over the leading axis).
func AddRowVector(t, v *Tensor) *Tensor {
	if t.Rank() != 2 || v.Rank() != 2 || v.shape[0] != 1 || v.shape[1] != t.shape[1] {
		panic(errf("AddRowVector", "shapes %v, %v", t.shape, v.shape))
	}
	m, n := t.shape[0], t.shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		row := t.Data[i*n : (i+1)*n]
		orow := out.Data[i*n : (i+1)*n]
		for j := range row {
			orow[j] = row[j] + v.Data[j]
		}
	}
	return out
}

// Equal reports whether t and u have the same shape and all elements are
// within tol of each other.
func Equal(t, u *Tensor, tol float64) bool {
	if !t.SameShape(u) {
		return false
	}
	for i := range t.Data {
		if math.Abs(t.Data[i]-u.Data[i]) > tol {
			return false
		}
	}
	return true
}
