package ensemble

import (
	"math"
	"math/rand"
	"testing"

	"dlsys/internal/nn"
	"dlsys/internal/tensor"
)

// TestTreeNetBatchedBitIdentity trains the same TreeNet twice — once
// through the BatMul-fused branch path, once through the sequential
// per-branch reference — and requires every trained parameter to match
// bit for bit. This pins the PR-9 contract (BatMul slice ≡ MatMul) all
// the way through a full training loop: forward fusion, bias broadcast,
// ReLU masks, gradient accumulation order, and the trunk-gradient sum.
func TestTreeNetBatchedBitIdentity(t *testing.T) {
	train, _ := ensembleDataset(5)
	y := nn.OneHot(train.Labels, 4)
	cfg := testCfg
	cfg.K = 4
	cfg.Epochs = 4

	batched := TrainTreeNet(31, train.X, y, cfg)
	sequential := trainTreeNet(31, train.X, y, cfg, false)

	if batched.Steps != sequential.Steps || batched.FLOPs != sequential.FLOPs {
		t.Fatalf("accounting diverged: steps %d vs %d, flops %d vs %d",
			batched.Steps, sequential.Steps, batched.FLOPs, sequential.FLOPs)
	}
	bp := batched.Committee.(*TreeNet).Params()
	sp := sequential.Committee.(*TreeNet).Params()
	if len(bp) != len(sp) {
		t.Fatalf("param count %d vs %d", len(bp), len(sp))
	}
	for i := range bp {
		if bp[i].Name != sp[i].Name {
			t.Fatalf("param %d name %q vs %q", i, bp[i].Name, sp[i].Name)
		}
		bd, sd := bp[i].Value.Data, sp[i].Value.Data
		if len(bd) != len(sd) {
			t.Fatalf("%s: size %d vs %d", bp[i].Name, len(bd), len(sd))
		}
		for j := range bd {
			if math.Float64bits(bd[j]) != math.Float64bits(sd[j]) {
				t.Fatalf("%s[%d]: batched %x (%g) != sequential %x (%g)",
					bp[i].Name, j, math.Float64bits(bd[j]), bd[j],
					math.Float64bits(sd[j]), sd[j])
			}
		}
	}
}

// TestTreeNetBatchableGate checks the fallback predicate: one branch,
// mismatched skeletons, or a pruning mask must route training onto the
// sequential path.
func TestTreeNetBatchableGate(t *testing.T) {
	mk := func() *TreeNet {
		return NewTreeNet(rand.New(rand.NewSource(7)), 3, testCfg.Arch)
	}
	if tn := mk(); !branchesBatchable(tn) {
		t.Fatal("uniform NewTreeNet branches reported unbatchable")
	}
	one := mk()
	one.Branches = one.Branches[:1]
	if branchesBatchable(one) {
		t.Fatal("single branch reported batchable (nothing to batch)")
	}
	ragged := mk()
	ragged.Branches[1] = ragged.Branches[1][1:]
	if branchesBatchable(ragged) {
		t.Fatal("ragged branch skeletons reported batchable")
	}
	masked := mk()
	d := masked.Branches[0][0].(*nn.Dense)
	if err := d.SetMask(tensor.Full(1, d.W.Value.Shape()...)); err != nil {
		t.Fatal(err)
	}
	if branchesBatchable(masked) {
		t.Fatal("masked branch weights reported batchable")
	}
}
