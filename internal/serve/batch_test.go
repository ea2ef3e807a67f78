package serve

import (
	"math/rand"
	"testing"

	"dlsys/internal/data"
	"dlsys/internal/nn"
)

// Batched tier predictions must be exactly the predictions the per-tier
// Predict calls produce — the serving ledger (and its fingerprint) depends
// on them.
func TestBatchPredictMatchesIndividual(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := data.GaussianMixture(rng, 400, 8, 4, 2.0)
	cfg := nn.MLPConfig{In: 8, Hidden: []int{48, 48}, Out: 4}
	nets := []*nn.Network{
		nn.NewMLP(rand.New(rand.NewSource(1)), cfg),
		nn.NewMLP(rand.New(rand.NewSource(2)), cfg),
		nn.NewMLP(rand.New(rand.NewSource(3)), cfg),
	}
	batched := batchPredict(nets, ds.X)
	for i, net := range nets {
		want := net.Predict(ds.X)
		for r := range want {
			if batched[i][r] != want[r] {
				t.Fatalf("net %d row %d: batched %d != individual %d", i, r, batched[i][r], want[r])
			}
		}
	}
}

func TestDenseArchSignatures(t *testing.T) {
	cfg := nn.MLPConfig{In: 8, Hidden: []int{48, 48}, Out: 4}
	a := nn.NewMLP(rand.New(rand.NewSource(1)), cfg)
	b := nn.NewMLP(rand.New(rand.NewSource(9)), cfg)
	if sa, sb := denseArch(a), denseArch(b); sa == "" || sa != sb {
		t.Fatalf("same-architecture nets disagree: %q vs %q", sa, sb)
	}
	narrow := nn.NewMLP(rand.New(rand.NewSource(1)), nn.MLPConfig{In: 8, Hidden: []int{8}, Out: 4})
	if denseArch(a) == denseArch(narrow) {
		t.Fatal("different architectures share a signature")
	}
	withDropout := nn.NewMLP(rand.New(rand.NewSource(1)), nn.MLPConfig{In: 8, Hidden: []int{8}, Out: 4, Dropout: 0.5})
	if denseArch(withDropout) != "" {
		t.Fatal("non-Dense/ReLU network should not be batchable")
	}
}

// tierPredictions must reproduce per-tier Predict for a mixed fleet: full
// and pruned share an architecture (batched), int8 and distilled do not.
func TestTierPredictionsMatchPerTier(t *testing.T) {
	variants, eval, err := BuildVariants(VariantsConfig{Seed: 5, Examples: 600, Epochs: 6})
	if err != nil {
		t.Fatal(err)
	}
	var reps [numTiers]Predictor
	for _, v := range variants {
		if reps[v.Tier] == nil {
			reps[v.Tier] = v.Model
		}
	}
	got := tierPredictions(reps, eval.X)
	for tier := TierFull; tier < numTiers; tier++ {
		want := reps[tier].Predict(eval.X)
		for r := range want {
			if got[tier][r] != want[r] {
				t.Fatalf("tier %v row %d: %d != %d", tier, r, got[tier][r], want[r])
			}
		}
	}
}
