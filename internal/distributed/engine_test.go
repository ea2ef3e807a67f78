package distributed

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dlsys/internal/fault"
	"dlsys/internal/guard"
	"dlsys/internal/nn"
	"dlsys/internal/obs"
	"dlsys/internal/robust"
	"dlsys/internal/sim"
)

// runHashes fingerprints everything one Train run leaves behind: Stats
// (every field but the ledger pointer), the consensus parameters, the
// quarantine ledger, the metric registry, the trace, and the kernel's event
// log.
type runHashes struct {
	Stats, Params, Quarantine, Registry, Trace, Kernel uint64
}

// hashRun trains cfg on a private kernel with a fresh obs handle and
// fingerprints the outcome.
func hashRun(t *testing.T, cfg Config) runHashes {
	t.Helper()
	train, _ := distDataset(5)
	y := nn.OneHot(train.Labels, 3)
	h := obs.NewHandle()
	k := sim.New()
	cfg.Obs, cfg.Kernel = h, k
	net, stats, err := Train(21, train.X, y, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	r := runHashes{
		Stats:    hashStats(stats),
		Params:   hashFloats(net.ParamVector()),
		Registry: h.Reg.Fingerprint(),
		Trace:    h.Tracer.Fingerprint(),
		Kernel:   k.Fingerprint(),
	}
	if stats.Quarantine != nil {
		r.Quarantine = stats.Quarantine.Fingerprint()
	}
	return r
}

// hashStats folds every numeric Stats field, in declaration order, into
// one FNV-1a hash. Floats hash by their bits, so any drift shows.
func hashStats(s Stats) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			put(uint64(f.Int()))
		case reflect.Float64:
			put(math.Float64bits(f.Float()))
		case reflect.Slice:
			put(uint64(f.Len()))
			for j := 0; j < f.Len(); j++ {
				put(math.Float64bits(f.Index(j).Float()))
			}
		case reflect.Ptr:
			// The quarantine ledger is hashed on its own.
		default:
			panic("hashStats: unhandled Stats field " + v.Type().Field(i).Name)
		}
	}
	return h.Sum64()
}

func hashFloats(xs []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// engineCell is one configuration of the round-engine matrix.
type engineCell struct {
	name string
	cfg  Config
}

// engineCells crosses the five communication patterns with both regimes
// (synchronous, Local SGD at H=3), both aggregators (the nil plain mean and
// CoordMedian), and three scenarios: clean links, every fault class at once
// (worker, message, link and Byzantine faults, an enforcing guard,
// reputation, churn, and in sync mode drop-slowest-k, top-k and
// quantization), and a lossy network where some star rounds lose every
// upload.
func engineCells() []engineCell {
	topos := append([]Topology{TopoDefault}, Topologies()...)
	var cells []engineCell
	for _, topo := range topos {
		for _, period := range []int{1, 3} {
			for _, median := range []bool{false, true} {
				for _, scenario := range []string{"clean", "faulty", "lossy"} {
					cfg := Config{
						Workers: 8, Arch: distArch, Epochs: 6, BatchSize: 16, LR: 0.1,
						AveragePeriod: period, Topology: topo, SnapshotPeriod: 2,
					}
					if median {
						cfg.Aggregator = robust.CoordMedian{}
					}
					switch scenario {
					case "faulty":
						f := fault.Rate(77, 0.2)
						f.BatchCorruptProb = 0.05
						f.LinkDropProb = 0.1
						f.LinkSlowProb = 0.05
						f.LinkSlowFactor = 8
						f.PartitionProb = 0.05
						f.PartitionRounds = 2
						f.ByzantineWorkers = []int{6}
						f.ByzantineKind = fault.KindSignFlip
						f.ByzantineRate = 1
						cfg.Fault = f
						cfg.Guard = &guard.Policy{Mode: guard.Enforce}
						cfg.Reputation = &robust.ReputationConfig{}
						cfg.Churn = []ChurnEvent{{Round: 5, Worker: 2}, {Round: 11, Worker: 2, Join: true}}
						if period == 1 {
							cfg.DropSlowestK = 1
							cfg.TopK = 0.5
							cfg.QuantBits = 8
						}
					case "lossy":
						cfg.Fault = fault.Config{Seed: 78, DropProb: 0.8}
						cfg.MaxRetries = 1
					}
					regime := "sync"
					if period > 1 {
						regime = "local3"
					}
					agg := "mean"
					if median {
						agg = "median"
					}
					pattern := string(topo)
					if topo == TopoDefault {
						pattern = "star"
					}
					cells = append(cells, engineCell{
						name: fmt.Sprintf("%s/%s/%s/%s", pattern, regime, agg, scenario),
						cfg:  cfg,
					})
				}
			}
		}
	}
	return cells
}

// roundEngineGolden pins every cell of engineCells, field for field:
// {Stats, Params, Quarantine, Registry, Trace, Kernel}.
var roundEngineGolden = map[string]runHashes{
	"star/sync/mean/clean":            {0x3b30586bd2b7275, 0xeff68d6b5150872b, 0x0, 0x98ccab5083fe214f, 0x4f210752806671e6, 0x597ceaa3d0712df4},
	"star/sync/mean/faulty":           {0x201e546f0d168a45, 0x9f59e4ba8ea1cb54, 0xcbf29ce484222325, 0x3d221c0cec143e6d, 0x82f5c975a27493b7, 0xb1153c523687b844},
	"star/sync/mean/lossy":            {0x7346e092b28101e, 0xc82497d5c4b910b, 0x0, 0x4f4224ef5140b88c, 0x3bbacb0961c7c718, 0x8a5f56afa923dcbc},
	"star/sync/median/clean":          {0xeb72c45e2a3d0ef3, 0x17c6e501f60cc63d, 0x0, 0x1c39126c0182df49, 0xaa6990ca4a5ec310, 0x526bc585657884e3},
	"star/sync/median/faulty":         {0x36154251bdfa19d, 0xf38734f98e5854a2, 0xdde9a82e2bb027a, 0x18eb4ec0ad06340b, 0xb5d40e901f18eedb, 0xeb7e8d0873eb432b},
	"star/sync/median/lossy":          {0xe5d684c7845fe708, 0x6ebceeca1d158728, 0x0, 0x5830af7da36c1658, 0xbc5c69be88a921b1, 0x216d59e808588f34},
	"star/local3/mean/clean":          {0x369672f262e338f8, 0x39d35cf1109f6edf, 0x0, 0xc7b3ba1ff54b16a0, 0x3fc6049ccad91df0, 0xed8c94f0b9d89f2a},
	"star/local3/mean/faulty":         {0x22ad8756c0cc33ab, 0xfcfcb27b5443ec5, 0xcbf29ce484222325, 0x25d5d20e9fd12d62, 0xbe321458cb77f1e0, 0xa5292f2e49d3af80},
	"star/local3/mean/lossy":          {0x85702a7ea1553e31, 0xb377316ae6dbc089, 0x0, 0x89154a4b3e2ceacc, 0x2b465331acc22aaf, 0x3d2e68b8ec6a55f9},
	"star/local3/median/clean":        {0xdbab19abfa4259b6, 0xcde8ccf8d71e966b, 0x0, 0x20d7600fec65c2b8, 0x16ae61458d3d6f0, 0xf1f17a5a0e53859c},
	"star/local3/median/faulty":       {0x3bb94ff68b20c5be, 0xc3487e3275db570d, 0x1852eaacb2d72e8f, 0xf69762e4be7f30bd, 0xaed91fd4065a8678, 0xe114794b2bf2b284},
	"star/local3/median/lossy":        {0x28d4e2b2ad14dba6, 0x9c8f87639dd0fe5e, 0x0, 0x270500ab12917b5a, 0x4f2d6d1113c40bbf, 0x53ea9c8af8217807},
	"all-to-all/sync/mean/clean":      {0xc7ccd5d645758b00, 0xeff68d6b5150872b, 0x0, 0x12449478fca2c3ba, 0x538b0e964cae2283, 0x394fb6a0b156e970},
	"all-to-all/sync/mean/faulty":     {0xb093eda3b8bf9f12, 0xab34f08c65b273d1, 0xcbf29ce484222325, 0x604566e33cc733ea, 0x61cbdfafee938114, 0x36f8dab9f823742},
	"all-to-all/sync/mean/lossy":      {0x1549e7d3002b8f8a, 0xeff68d6b5150872b, 0x0, 0x8ac4a6b23215b34c, 0x538b0e964cae2283, 0x394fb6a0b156e970},
	"all-to-all/sync/median/clean":    {0x44454803a4c0731f, 0x17c6e501f60cc63d, 0x0, 0x9930b4a25cd431af, 0x8ad1ff2b8bb6c3ae, 0xbeef4fd294f0bb6a},
	"all-to-all/sync/median/faulty":   {0x3f42840a2d043020, 0x793759926ddabf24, 0xbc169aae74ddea73, 0x55329dcd6f191280, 0xe6ac97df2671973, 0x4b0f637a7fe9dd5},
	"all-to-all/sync/median/lossy":    {0x759fbffd00be661, 0x17c6e501f60cc63d, 0x0, 0x56ff74ee6b5d0001, 0x8ad1ff2b8bb6c3ae, 0xbeef4fd294f0bb6a},
	"all-to-all/local3/mean/clean":    {0x7a8f4747e66fb9b7, 0x39d35cf1109f6edf, 0x0, 0xbed29353cfc6f0eb, 0xb57f8ab27327e09e, 0x69b846cf120eb02b},
	"all-to-all/local3/mean/faulty":   {0x45a1c520fe2e7b3e, 0xa82b52b91ff47c18, 0xcbf29ce484222325, 0x1f0c665322328ba2, 0x685ec4cd2a06212b, 0x61683340ccc690a6},
	"all-to-all/local3/mean/lossy":    {0x4bce3558739c40b8, 0x39d35cf1109f6edf, 0x0, 0xc515e836a609db00, 0xb57f8ab27327e09e, 0x69b846cf120eb02b},
	"all-to-all/local3/median/clean":  {0x3f48ed0bf24cf549, 0xcde8ccf8d71e966b, 0x0, 0x940e5ea2f565fc7b, 0xd2f7b9c178f1581a, 0x39a6eaf753979044},
	"all-to-all/local3/median/faulty": {0xef91760825d9d21f, 0x2890ad8e77f0cc17, 0xa677c003d2a94ed7, 0x2c4ff4f6c5dac6, 0x4c43931e3a6b4ff7, 0x7a951d74770ca4cf},
	"all-to-all/local3/median/lossy":  {0x26d01d5e2e5f936e, 0xcde8ccf8d71e966b, 0x0, 0xdf31533027afc064, 0xd2f7b9c178f1581a, 0x39a6eaf753979044},
	"ring/sync/mean/clean":            {0x93c45f6494cace0c, 0xeff68d6b5150872b, 0x0, 0x95be160f7897d38c, 0xf0b53ec6c0d57c69, 0xf23ed0b8d0a8bb92},
	"ring/sync/mean/faulty":           {0x650af69ea77e4fba, 0xab34f08c65b273d1, 0xcbf29ce484222325, 0x39808410c1797d90, 0xa510139aa5ac4ccf, 0xcadfb32651e179c4},
	"ring/sync/mean/lossy":            {0xd81291e7df0df322, 0xeff68d6b5150872b, 0x0, 0xb8f85c6c133fdc0a, 0xf0b53ec6c0d57c69, 0xf23ed0b8d0a8bb92},
	"ring/sync/median/clean":          {0xb7e197f4545b69b2, 0x17c6e501f60cc63d, 0x0, 0x84f0f41bb533d3c4, 0x2fce6bbfea3b5281, 0x225e71d65ca81dee},
	"ring/sync/median/faulty":         {0xca9cd9dc28b4a3f6, 0x793759926ddabf24, 0xbc169aae74ddea73, 0x4998610d42964874, 0x70dfadd9325bbd58, 0xdb7a41a3d1cabfe7},
	"ring/sync/median/lossy":          {0x7073710df5bffe1c, 0x17c6e501f60cc63d, 0x0, 0xb9cb6edfe93aad46, 0x2fce6bbfea3b5281, 0x225e71d65ca81dee},
	"ring/local3/mean/clean":          {0x246c17a846b081ac, 0x39d35cf1109f6edf, 0x0, 0x762165060bf0afa8, 0xfbdd5f2dee7dd7e7, 0x5468cd3d41766efc},
	"ring/local3/mean/faulty":         {0x55cca6f2f670b535, 0xa82b52b91ff47c18, 0xcbf29ce484222325, 0x688963a058fe5951, 0x71785795ff3a3b22, 0x9e2283d58b4eef6},
	"ring/local3/mean/lossy":          {0xc3ac5d6345eaa7a7, 0x39d35cf1109f6edf, 0x0, 0xc2df26935a94d3f7, 0xfbdd5f2dee7dd7e7, 0x5468cd3d41766efc},
	"ring/local3/median/clean":        {0x50b5ffec06d2f41d, 0xcde8ccf8d71e966b, 0x0, 0x4e55e6efe5a3618b, 0x97ce129bd9404c46, 0x6360d840b9dc13e8},
	"ring/local3/median/faulty":       {0x515a3934c679bf68, 0x2890ad8e77f0cc17, 0xa677c003d2a94ed7, 0xa93e185e5dad46bd, 0xc770dc25ddcc6c88, 0x5f3c40a2eff05fd2},
	"ring/local3/median/lossy":        {0x9669bc2019289e16, 0xcde8ccf8d71e966b, 0x0, 0x1a189743d32a6d98, 0x97ce129bd9404c46, 0x6360d840b9dc13e8},
	"tree/sync/mean/clean":            {0x4db89445c056d051, 0xeff68d6b5150872b, 0x0, 0xb1c03b4523d2203d, 0x83661435bc15010c, 0x2bbece5bb32382c9},
	"tree/sync/mean/faulty":           {0x26ae1d930626753a, 0xab34f08c65b273d1, 0xcbf29ce484222325, 0xf80e5e1e77dec65c, 0xa54aaaf99f8f3ed5, 0xeb65268e0e9674fa},
	"tree/sync/mean/lossy":            {0x25dcff927d8e0b8b, 0xeff68d6b5150872b, 0x0, 0xdd879e92e2f8401f, 0x83661435bc15010c, 0x2bbece5bb32382c9},
	"tree/sync/median/clean":          {0x893fbe4a52b69489, 0x17c6e501f60cc63d, 0x0, 0x5f04557f2bc2d9cf, 0x8eb19ce7110b08c5, 0xf34382eeed3a8276},
	"tree/sync/median/faulty":         {0xe861082b233e9648, 0x793759926ddabf24, 0xbc169aae74ddea73, 0xbac2ceed4a1e577e, 0x71648ba17ffc9c5a, 0xa3eb55b8158152a0},
	"tree/sync/median/lossy":          {0xe4bbc2fbfc56b6e7, 0x17c6e501f60cc63d, 0x0, 0x731e8e9cbc728e15, 0x8eb19ce7110b08c5, 0xf34382eeed3a8276},
	"tree/local3/mean/clean":          {0xd6b9b4b88128de65, 0x39d35cf1109f6edf, 0x0, 0x2a539fa08d92daad, 0x45356cac76ddca6, 0xed233ae772604f5d},
	"tree/local3/mean/faulty":         {0xd81e645e67352131, 0xa82b52b91ff47c18, 0xcbf29ce484222325, 0x2756febbab4d8645, 0x5c4350c7baa7a440, 0x4e7ae24011715cc3},
	"tree/local3/mean/lossy":          {0x9ade4b2b7310157e, 0x39d35cf1109f6edf, 0x0, 0xa44ddad05cc62d9a, 0x45356cac76ddca6, 0xed233ae772604f5d},
	"tree/local3/median/clean":        {0xee60b5b48f3f0067, 0xcde8ccf8d71e966b, 0x0, 0xda2be9238d03cdfd, 0x5470340a002cd11, 0x6f616dc30f1cfb38},
	"tree/local3/median/faulty":       {0xdbaa2639a985f032, 0x2890ad8e77f0cc17, 0xa677c003d2a94ed7, 0x6d927ae1c1dd1fa3, 0x1838864cc2592d76, 0x9bacc4cc4a5e2af6},
	"tree/local3/median/lossy":        {0x7038488f0c6bafd4, 0xcde8ccf8d71e966b, 0x0, 0x4d18a24268c25906, 0x5470340a002cd11, 0x6f616dc30f1cfb38},
	"hier/sync/mean/clean":            {0xe1be49058b891dba, 0xeff68d6b5150872b, 0x0, 0xe29403d30d876cc4, 0xda2f004984a64cfb, 0x548f69e7d4a9a70b},
	"hier/sync/mean/faulty":           {0xb93c43dff6240a82, 0xab34f08c65b273d1, 0xcbf29ce484222325, 0xab1a7f31091eb8, 0x4eafebf4a2815e16, 0xafb42430a13b3cdf},
	"hier/sync/mean/lossy":            {0x66c1d82e83fccfec, 0xeff68d6b5150872b, 0x0, 0x41e27f9c46679b46, 0xda2f004984a64cfb, 0x548f69e7d4a9a70b},
	"hier/sync/median/clean":          {0x77117c8079c1022c, 0x17c6e501f60cc63d, 0x0, 0xd05ea7a5693ea04, 0x5c89330140242e10, 0x189a5f7dbb02e4d9},
	"hier/sync/median/faulty":         {0xc024f4dacea3c79a, 0x793759926ddabf24, 0xbc169aae74ddea73, 0xa609ec2097e37a3c, 0xa8b00505920bf2bd, 0x2f130484a36927bd},
	"hier/sync/median/lossy":          {0xb838c95b5386afe6, 0x17c6e501f60cc63d, 0x0, 0x82da811c893eb5de, 0x5c89330140242e10, 0x189a5f7dbb02e4d9},
	"hier/local3/mean/clean":          {0x5cbf206b56c19dbd, 0x39d35cf1109f6edf, 0x0, 0x8acc0123a500d3d, 0x6216460f3d9d3657, 0xea97c5c3fae61704},
	"hier/local3/mean/faulty":         {0xdcba66cd5b129942, 0xa82b52b91ff47c18, 0xcbf29ce484222325, 0x32a185ad178ac2c, 0x59b11c9bb42115ff, 0x5988a4852cd1626a},
	"hier/local3/mean/lossy":          {0x6d34031434bc0042, 0x39d35cf1109f6edf, 0x0, 0x759645f23f46784e, 0x6216460f3d9d3657, 0xea97c5c3fae61704},
	"hier/local3/median/clean":        {0xbf612198e3965553, 0xcde8ccf8d71e966b, 0x0, 0xb30d14ba7eca7535, 0xa4434e0ae0a25fd9, 0xa888cab6c5166ea7},
	"hier/local3/median/faulty":       {0x4141692721f8d88f, 0x2890ad8e77f0cc17, 0xa677c003d2a94ed7, 0xb1f045445d97e6a8, 0xdf0e1d2887c98552, 0x245015a49cf286fb},
	"hier/local3/median/lossy":        {0x193a14d4f95b6f74, 0xcde8ccf8d71e966b, 0x0, 0x194ebe336d834c6a, 0xa4434e0ae0a25fd9, 0xa888cab6c5166ea7},
}

// TestRoundEngineBitIdentity replays the whole round-engine matrix and
// checks every fingerprint against the pinned values: the parameter-server
// star and the four collectives share one round implementation, and
// nothing it computes, counts, traces or schedules may drift.
func TestRoundEngineBitIdentity(t *testing.T) {
	cells := engineCells()
	if len(cells) != len(roundEngineGolden) {
		t.Fatalf("%d cells, %d golden entries", len(cells), len(roundEngineGolden))
	}
	for _, c := range cells {
		want, ok := roundEngineGolden[c.name]
		if !ok {
			t.Errorf("%s: no golden entry", c.name)
			continue
		}
		got := hashRun(t, c.cfg)
		if got == want {
			continue
		}
		var diff []string
		gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
		for i := 0; i < gv.NumField(); i++ {
			if gv.Field(i).Uint() != wv.Field(i).Uint() {
				diff = append(diff, gv.Type().Field(i).Name)
			}
		}
		t.Errorf("%s: %s differ; got\n\t%q: {%#x, %#x, %#x, %#x, %#x, %#x},", c.name, strings.Join(diff, ", "),
			c.name, got.Stats, got.Params, got.Quarantine, got.Registry, got.Trace, got.Kernel)
	}
}

// TestRoundEngineReplaysAcrossGOMAXPROCS runs a faulty star job with robust
// aggregation and a ring job with churn and link faults at GOMAXPROCS 1, 2
// and 8. computeGrads fans every round out to one goroutine per worker, so
// the scheduler's choices must not reach any fingerprint.
func TestRoundEngineReplaysAcrossGOMAXPROCS(t *testing.T) {
	star := Config{
		Workers: 8, Arch: distArch, Epochs: 6, BatchSize: 16, LR: 0.1,
		AveragePeriod: 1, SnapshotPeriod: 2, DropSlowestK: 1,
		Fault:      fault.Rate(91, 0.25),
		Aggregator: robust.CoordMedian{},
		Guard:      &guard.Policy{Mode: guard.Enforce},
		Reputation: &robust.ReputationConfig{},
	}
	star.Fault.ByzantineWorkers = []int{5}
	star.Fault.ByzantineKind = fault.KindSignFlip
	ring := Config{
		Workers: 8, Arch: distArch, Epochs: 6, BatchSize: 16, LR: 0.1,
		AveragePeriod: 1, Topology: TopoRing, SnapshotPeriod: 2,
		Fault: fault.LinkRate(92, 0.2), Churn: churnSchedule(),
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, cfg := range map[string]Config{"star": star, "ring": ring} {
		var ref runHashes
		for i, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got := hashRun(t, cfg)
			if i == 0 {
				ref = got
				continue
			}
			if got != ref {
				t.Errorf("%s: GOMAXPROCS=%d fingerprints %+v, GOMAXPROCS=1 %+v", name, procs, got, ref)
			}
		}
	}
}
