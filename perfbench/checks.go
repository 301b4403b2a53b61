package main

import (
	"bytes"
	"fmt"
	"math"

	"acme/internal/cluster"
	"acme/internal/core"
	"acme/internal/transport"
	"acme/internal/wire"
)

// facts is what the output checks know about a run apart from its
// Result: the fleet and partition the System generated, and the
// workload's shape.
type facts struct {
	cfg              core.Config
	devices          []cluster.Device
	clusters         [][]int
	classesPerDevice int
	rounds           int
	oneUploadPerRnd  bool
	sampleNum        int
	sampleDen        int
}

func factsFor(sys *core.System, w workload) facts {
	return facts{
		cfg:              sys.Cfg,
		devices:          sys.Devices(),
		clusters:         sys.Clusters(),
		classesPerDevice: sys.Cfg.ClassesPerDevice,
		rounds:           sys.Cfg.Phase2Rounds,
		oneUploadPerRnd:  w.oneUploadPerRound,
		sampleNum:        w.sampleNum,
		sampleDen:        w.sampleDen,
	}
}

// checkRun applies every per-run output check.
func checkRun(f facts, res *core.Result, log []event) error {
	for _, check := range []func() error{
		func() error { return checkReports(f, res) },
		func() error { return checkAccuracy(f, res) },
		func() error { return checkBackboneFits(f, res) },
		func() error { return checkBytes(res, log) },
		func() error { return checkUploadsPerRound(f, log) },
		func() error { return checkInvites(f, log) },
	} {
		if err := check(); err != nil {
			return err
		}
	}
	return nil
}

// checkReports: every device reports exactly once, and every accuracy
// lies in [0,1].
func checkReports(f facts, res *core.Result) error {
	if len(res.Reports) != len(f.devices) {
		return fmt.Errorf("%d reports for %d devices", len(res.Reports), len(f.devices))
	}
	seen := make(map[int]bool, len(f.devices))
	for _, d := range f.devices {
		seen[d.ID] = false
	}
	for _, r := range res.Reports {
		done, ok := seen[r.DeviceID]
		if !ok || done {
			return fmt.Errorf("report for unknown or repeated device %d", r.DeviceID)
		}
		seen[r.DeviceID] = true
		for _, a := range []float64{r.AccuracyCoarse, r.AccuracyFinal} {
			if !(a >= 0 && a <= 1) {
				return fmt.Errorf("device %d accuracy %v outside [0,1]", r.DeviceID, a)
			}
		}
	}
	return nil
}

// checkAccuracy: mean final accuracy is clearly above chance, which on
// a device that sees ClassesPerDevice classes is 1/ClassesPerDevice;
// "clearly" is twice that.
func checkAccuracy(f facts, res *core.Result) error {
	chance := 1 / float64(f.classesPerDevice)
	if acc := res.MeanAccuracyFinal(); !(acc >= 2*chance) {
		return fmt.Errorf("mean final accuracy %.4f not above twice chance %.4f", acc, chance)
	}
	return nil
}

// checkBackboneFits: each cluster's assigned backbone fits the
// smallest storage budget among its devices — the paper's size
// constraint.
func checkBackboneFits(f facts, res *core.Result) error {
	for e, members := range f.clusters {
		cand, ok := res.Assignments[e]
		if !ok {
			return fmt.Errorf("edge %d has no backbone assignment", e)
		}
		budget := math.Inf(1)
		for _, di := range members {
			budget = math.Min(budget, f.devices[di].Storage)
		}
		if cand.Size > budget {
			return fmt.Errorf("edge %d backbone (w=%v, d=%d) has %.0f parameters, over its smallest device budget %.0f",
				e, cand.W, cand.D, cand.Size, budget)
		}
	}
	return nil
}

var (
	uplinkKinds   = []transport.Kind{transport.KindStats, transport.KindRawData, transport.KindImportanceSet, transport.KindImportanceDelta}
	downlinkKinds = []transport.Kind{transport.KindPersonalizedSet, transport.KindImportanceDownDelta}
)

// recount sums payload length plus the per-message framing estimate
// over the logged sends, per kind.
func recount(log []event) map[transport.Kind]int64 {
	out := make(map[transport.Kind]int64)
	for _, ev := range log {
		if !ev.recv {
			out[ev.kind] += int64(ev.size) + transport.HeaderEstimate
		}
	}
	return out
}

func sumKinds(m map[transport.Kind]int64, kinds []transport.Kind) int64 {
	var n int64
	for _, k := range kinds {
		n += m[k]
	}
	return n
}

// checkBytes: the Result's byte counters equal the tap's own recount.
func checkBytes(res *core.Result, log []event) error {
	byKind := recount(log)
	var total int64
	for _, n := range byKind {
		total += n
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"UploadBytes", res.UploadBytes, sumKinds(byKind, uplinkKinds)},
		{"DownlinkBytes", res.DownlinkBytes, sumKinds(byKind, downlinkKinds)},
		{"Stats.TotalBytes", res.Stats.TotalBytes(), total},
	} {
		if c.got != c.want {
			return fmt.Errorf("%s = %d, recount gives %d", c.name, c.got, c.want)
		}
	}
	return nil
}

// checkUploadsPerRound: with full participation every device sends
// exactly one importance upload in every round.
func checkUploadsPerRound(f facts, log []event) error {
	if !f.oneUploadPerRnd {
		return nil
	}
	count := make(map[string][]int, len(f.devices))
	for _, d := range f.devices {
		count[d.Name()] = make([]int, f.rounds)
	}
	for _, ev := range log {
		if ev.recv || (ev.kind != transport.KindImportanceSet && ev.kind != transport.KindImportanceDelta) {
			continue
		}
		c, ok := count[ev.from]
		if !ok || ev.round < 0 || ev.round >= f.rounds {
			return fmt.Errorf("upload from %s in round %d outside the fleet or the round budget", ev.from, ev.round)
		}
		c[ev.round]++
	}
	for _, d := range f.devices {
		for r, n := range count[d.Name()] {
			if n != 1 {
				return fmt.Errorf("%s sent %d uploads in round %d, want 1", d.Name(), n, r)
			}
		}
	}
	return nil
}

// checkInvites: under sampling every edge round invites
// ceil(frac × live) devices. No device leaves in these workloads, so
// live is the cluster size.
func checkInvites(f facts, log []event) error {
	if f.sampleDen == 0 {
		return nil
	}
	invites := make(map[string][]int, len(f.clusters))
	for e := range f.clusters {
		invites[fmt.Sprintf("edge-%d", e)] = make([]int, f.rounds)
	}
	for _, ev := range log {
		if ev.recv || ev.kind != transport.KindControl {
			continue
		}
		inv, ok := invites[ev.from]
		if !ok {
			continue
		}
		if ev.round >= 0 && ev.round < f.rounds && ev.invite {
			inv[ev.round]++
		}
	}
	for e, members := range f.clusters {
		live := len(members)
		want := (live*f.sampleNum + f.sampleDen - 1) / f.sampleDen
		if want < 1 {
			want = 1
		}
		for r, n := range invites[fmt.Sprintf("edge-%d", e)] {
			if n != want {
				return fmt.Errorf("edge-%d invited %d of %d devices in round %d, want %d", e, n, live, r, want)
			}
		}
	}
	return nil
}

// checkReplay: every captured bulk payload decodes through the public
// codec and re-encodes to identical bytes (entropy frames re-encode
// through the entropy codec).
func checkReplay(payloads []captured) error {
	for i, c := range payloads {
		v, err := decodeKind(c.kind, c.payload)
		if err != nil {
			return fmt.Errorf("payload %d (%v): %w", i, c.kind, err)
		}
		codec := transport.Binary
		if _, ok := wire.EntropyInfo(c.payload); ok {
			codec = transport.Entropy
		}
		again, err := codec.Encode(v)
		if err != nil {
			return fmt.Errorf("payload %d (%v) re-encode: %w", i, c.kind, err)
		}
		if !bytes.Equal(again, c.payload) {
			return fmt.Errorf("payload %d (%v): %d bytes re-encode to %d different bytes", i, c.kind, len(c.payload), len(again))
		}
	}
	return nil
}

// decodeKind decodes a bulk payload into the protocol type its kind
// carries and returns the value (not a pointer), ready to re-encode.
func decodeKind(k transport.Kind, payload []byte) (any, error) {
	switch k {
	case transport.KindBackbone:
		return decodeAs[core.BackboneAssignment](payload)
	case transport.KindHeader:
		return decodeAs[core.HeaderPackage](payload)
	case transport.KindImportanceSet:
		return decodeAs[core.ImportanceUpload](payload)
	case transport.KindPersonalizedSet:
		return decodeAs[core.PersonalizedSet](payload)
	case transport.KindRawData, transport.KindProvision:
		return decodeAs[core.RawShard](payload)
	case transport.KindImportanceDelta:
		return decodeAs[core.DeltaUpload](payload)
	case transport.KindImportanceDownDelta:
		return decodeAs[core.DownlinkDelta](payload)
	}
	return nil, fmt.Errorf("no bulk type for kind %v", k)
}

func decodeAs[T any](payload []byte) (any, error) {
	var v T
	if err := transport.Binary.Decode(payload, &v); err != nil {
		return nil, err
	}
	return v, nil
}
