package main

import (
	"fmt"
	"runtime"

	"acme"
	"acme/internal/nas"
)

// workload is one named input set of the benchmark: a Config built
// from acme.DefaultConfig plus the deltas that make one part of the
// pipeline dominate, and the properties its output checks rely on.
type workload struct {
	name string
	why  string
	// config returns the workload's Config for one seed.
	config func(seed int64) acme.Config
	// jobs is how many customization jobs, each with its own seed, make
	// one round of a run. Bytes and accuracy are deterministic per seed
	// but differ from seed to seed, mostly with the header the search
	// picks; their mean over the jobs is what steadies them.
	jobs int
	// oneUploadPerRound: with full participation every device sends
	// exactly one importance upload per round.
	oneUploadPerRound bool
	// sampleNum/sampleDen is the participation fraction as a rational,
	// so the invite check recomputes ceil(frac × live) in integers
	// rather than repeating the program's float arithmetic. 0/0 means
	// sampling is off.
	sampleNum, sampleDen int
}

// cores is the processor count every workload pins GOMAXPROCS and
// Config.Parallelism to.
func cores() int { return runtime.NumCPU() }

// base is the Config every workload starts from: DefaultConfig with
// the dense binary wire, kernel parallelism pinned to the core count,
// five classes per device, and a two-block header search with a
// 128-wide classifier. The wide fixed classifier and the short search
// keep the header size, and with it every importance payload, from
// swinging with the architecture each seed's search picks.
func base(seed int64) acme.Config {
	cfg := acme.DefaultConfig()
	cfg.Wire.Format = "binary"
	cfg.Parallelism = cores()
	cfg.ClassesPerDevice = 5
	cfg.Search.Hidden = 128
	cfg.Search.Blocks = 2
	cfg.Seed = seed
	return cfg
}

var workloads = []workload{
	{
		name: "customize",
		why:  "Phase 1 backbone sweep and distillation plus Phase 2-1 NAS dominate: tensor, nn, prune, pareto, nas",
		config: func(seed int64) acme.Config {
			cfg := base(seed)
			cfg.EdgeServers = 3
			cfg.Fleet.Spec.Clusters = 3
			cfg.Fleet.Spec.DevicesPerCluster = 3
			cfg.SamplesPerDevice = 80
			cfg.PublicSamples = 160
			cfg.CloudProbe = 32
			cfg.PretrainEpochs = 1
			// The cloud customizes cluster after cluster, so the first
			// edges' early rounds run beside its distillation and take
			// longer than the rest. With 8 rounds most intervals come after
			// Phase 1, and round_ms's median stays in one mode.
			cfg.Phase2Rounds = 8
			return cfg
		},
		jobs:              8,
		oneUploadPerRound: true,
	},
	{
		name: "refine",
		why:  "the Phase 2-2 loop dominates: importance, aggregate, device training and quantize/delta/entropy wire coding",
		config: func(seed int64) acme.Config {
			cfg := base(seed)
			cfg.EdgeServers = 2
			cfg.Fleet.Spec.Clusters = 2
			cfg.Fleet.Spec.DevicesPerCluster = 4
			cfg.SamplesPerDevice = 64
			cfg.PublicSamples = 120
			cfg.CloudProbe = 32
			cfg.PretrainEpochs = 1
			cfg.Widths = []float64{0.5, 1.0}
			cfg.Depths = []int{2, 4}
			cfg.Phase2Rounds = 6
			cfg.Search.Ops = oneOp
			cfg.Wire.Quantization = acme.QuantMixed
			cfg.Wire.DeltaImportance = true
			cfg.Wire.Entropy = true
			return cfg
		},
		jobs:              8,
		oneUploadPerRound: true,
	},
	{
		name: "fleet",
		why:  "many small devices with 20% sampled rounds: fleet sampling, invites, header fan-out, similarity matrix",
		config: func(seed int64) acme.Config {
			cfg := base(seed)
			cfg.EdgeServers = 2
			cfg.Fleet.Spec.Clusters = 2
			cfg.Fleet.Spec.DevicesPerCluster = 40
			cfg.Fleet.SharedShards = true
			cfg.DataGroups = 16
			cfg.Fleet.SampleFrac = 0.2
			cfg.SamplesPerDevice = 32
			cfg.PublicSamples = 120
			cfg.CloudProbe = 32
			cfg.PretrainEpochs = 1
			cfg.Widths = []float64{0.5, 1.0}
			cfg.Depths = []int{2, 4}
			cfg.Phase2Rounds = 3
			cfg.Search.Ops = oneOp
			return cfg
		},
		jobs:      8,
		sampleNum: 1, sampleDen: 5,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// oneOp narrows the header search of the loop-bound workloads to a
// single operation, so every header they search has one size and the
// loop does the same work whatever architecture the search picks.
var oneOp = []nas.OpKind{nas.OpConv3}
