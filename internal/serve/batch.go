package serve

import (
	"fmt"

	"dlsys/internal/nn"
	"dlsys/internal/tensor"
)

// Batched tier predictions. NewServer scores every tier's representative
// model over the same eval matrix; when several tiers host pure Dense+ReLU
// networks of identical architecture (the full and pruned tiers share
// [in, hidden..., out] by construction), their forwards are one rank-3
// BatMul per layer instead of one MatMul per tier. The batched kernel is
// bit-identical to MatMul on each slice (the gemm.go contract), the bias
// add and ReLU below mirror nn.Dense/nn.ReLU element for element, and
// masked (pruned) weights are already zeroed in W.Value, so the batched
// predictions match per-tier Predict calls exactly.

// denseArch returns an architecture signature for a pure Dense(+ReLU)
// network, or "" when the network contains any other layer type (dropout,
// batchnorm, conv — none of them batchable here).
func denseArch(net *nn.Network) string {
	sig := ""
	for _, l := range net.Layers {
		switch v := l.(type) {
		case *nn.Dense:
			sig += fmt.Sprintf("D%dx%d;", v.In(), v.Out())
		case *nn.ReLU:
			sig += "R;"
		default:
			return ""
		}
	}
	return sig
}

// batchPredict runs x through nets — which must share a denseArch
// signature — with one batched GEMM per layer, returning per-net argmax
// predictions. Slice i of the result equals nets[i].Predict(x) exactly.
func batchPredict(nets []*nn.Network, x *tensor.Tensor) [][]int {
	bt := len(nets)
	m, width := x.Dim(0), x.Dim(1)
	cur := tensor.New(bt, m, width)
	for i := 0; i < bt; i++ {
		copy(cur.Data[i*m*width:(i+1)*m*width], x.Data)
	}
	for li, l := range nets[0].Layers {
		switch v := l.(type) {
		case *nn.Dense:
			in, out := v.In(), v.Out()
			w := tensor.New(bt, in, out)
			for i, net := range nets {
				copy(w.Data[i*in*out:(i+1)*in*out], net.Layers[li].(*nn.Dense).W.Value.Data)
			}
			prod := tensor.BatMul(cur, w)
			// Bias add, mirroring tensor.AddRowVector per slice.
			for i, net := range nets {
				b := net.Layers[li].(*nn.Dense).B.Value.Data
				slice := prod.Data[i*m*out : (i+1)*m*out]
				for r := 0; r < m; r++ {
					row := slice[r*out : (r+1)*out]
					for j := range row {
						row[j] += b[j]
					}
				}
			}
			cur = prod
			width = out
		case *nn.ReLU:
			// Mirror nn.ReLU.Forward: strictly positive passes, else zero.
			for i, val := range cur.Data {
				if !(val > 0) {
					cur.Data[i] = 0
				}
			}
		}
	}
	preds := make([][]int, bt)
	for i := 0; i < bt; i++ {
		preds[i] = make([]int, m)
		slice := &stackSlice{data: cur.Data[i*m*width : (i+1)*m*width], n: width}
		for r := 0; r < m; r++ {
			preds[i][r] = slice.argMaxRow(r)
		}
	}
	return preds
}

// stackSlice is a minimal rank-2 view over a batch slice for argmax,
// matching Tensor.ArgMaxRow's tie-breaking (lowest index wins).
type stackSlice struct {
	data []float64
	n    int
}

func (s *stackSlice) argMaxRow(r int) int {
	row := s.data[r*s.n : (r+1)*s.n]
	best := 0
	for j := 1; j < len(row); j++ {
		if row[j] > row[best] {
			best = j
		}
	}
	return best
}

// tierPredictions scores one representative model per tier over the eval
// matrix, batching same-architecture Dense+ReLU networks through the rank-3
// kernel and falling back to individual Predict calls for everything else
// (the int8 path, mixed architectures).
func tierPredictions(reps [numTiers]Predictor, evalX *tensor.Tensor) (preds [numTiers][]int) {
	type member struct {
		tier Tier
		net  *nn.Network
	}
	groups := map[string][]member{}
	for t := TierFull; t < numTiers; t++ {
		if reps[t] == nil {
			continue
		}
		if net, ok := reps[t].(*nn.Network); ok {
			if sig := denseArch(net); sig != "" {
				groups[sig] = append(groups[sig], member{t, net})
				continue
			}
		}
		preds[t] = reps[t].Predict(evalX)
	}
	for _, g := range groups {
		if len(g) == 1 {
			preds[g[0].tier] = g[0].net.Predict(evalX)
			continue
		}
		nets := make([]*nn.Network, len(g))
		for i, mb := range g {
			nets[i] = mb.net
		}
		batched := batchPredict(nets, evalX)
		for i, mb := range g {
			preds[mb.tier] = batched[i]
		}
	}
	return preds
}
