package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"acme"
	"acme/internal/core"
	"acme/internal/pareto"
	"acme/internal/transport"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values is not NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to the figures Python's
// statistics.quantiles(xs, n=4) prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2.5, 1, 4}, [3]float64{1, 2.5, 4}},
		{[]float64{5, 1, 3, 2}, [3]float64{1.25, 2.5, 4.5}},
	} {
		got := quartiles(c.in)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// tinyConfig is a two-device, one-edge run small enough for a unit
// test, with the full customize-then-refine pipeline.
func tinyConfig() acme.Config {
	cfg := acme.DefaultConfig()
	cfg.EdgeServers = 1
	cfg.Fleet.Spec.Clusters = 1
	cfg.Fleet.Spec.DevicesPerCluster = 2
	cfg.SamplesPerDevice = 60
	cfg.ClassesPerDevice = 5
	cfg.PublicSamples = 80
	cfg.CloudProbe = 16
	cfg.PretrainEpochs = 1
	cfg.Widths = []float64{0.5, 1}
	cfg.Depths = []int{2}
	cfg.Search.Epochs = 1
	cfg.Search.FinalCandidates = 2
	cfg.Phase2Rounds = 2
	cfg.Wire.DeltaImportance = true
	cfg.Wire.Entropy = true
	cfg.Seed = 5
	return cfg
}

var tinyWorkload = workload{name: "tiny", jobs: 1, config: func(int64) acme.Config { return tinyConfig() }, oneUploadPerRound: true}

// tinyRun runs the tiny config once per test binary, with the tap
// capturing payloads and recording spans.
var tinyRun = sync.OnceValues(func() (*iteration, error) {
	return runIteration(tinyWorkload, 5, 0, true, true, hooks{})
})

func tiny(t *testing.T) *iteration {
	t.Helper()
	it, err := tinyRun()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRun(it.facts, it.res, it.tap.log()); err != nil {
		t.Fatalf("the undoctored run fails its checks: %v", err)
	}
	if err := checkReplay(it.tap.payloads); err != nil {
		t.Fatalf("the undoctored payloads fail the replay check: %v", err)
	}
	return it
}

// doctored returns a shallow copy of the Result whose slices and maps
// may be replaced without touching the shared run.
func doctored(res *core.Result) *core.Result {
	cp := *res
	cp.Reports = append([]core.DeviceReport(nil), res.Reports...)
	cp.Assignments = make(map[int]pareto.Candidate, len(res.Assignments))
	for k, v := range res.Assignments {
		cp.Assignments[k] = v
	}
	return &cp
}

func TestChecksRejectDoctoredResults(t *testing.T) {
	it := tiny(t)
	log := it.tap.log()
	budget := math.Inf(1)
	for _, di := range it.facts.clusters[0] {
		budget = math.Min(budget, it.facts.devices[di].Storage)
	}
	cases := []struct {
		name   string
		doctor func(*core.Result)
	}{
		{"upload one byte off", func(r *core.Result) { r.UploadBytes++ }},
		{"downlink one byte off", func(r *core.Result) { r.DownlinkBytes-- }},
		{"missing report", func(r *core.Result) { r.Reports = r.Reports[1:] }},
		{"repeated report", func(r *core.Result) { r.Reports[1] = r.Reports[0] }},
		{"accuracy above one", func(r *core.Result) { r.Reports[0].AccuracyFinal = 1.5 }},
		{"accuracy at chance", func(r *core.Result) {
			for i := range r.Reports {
				r.Reports[i].AccuracyFinal = 1 / float64(it.facts.classesPerDevice)
			}
		}},
		{"oversized backbone", func(r *core.Result) {
			c := r.Assignments[0]
			c.Size = budget + 1
			r.Assignments[0] = c
		}},
		{"missing assignment", func(r *core.Result) { delete(r.Assignments, 0) }},
	}
	for _, c := range cases {
		res := doctored(it.res)
		c.doctor(res)
		if err := checkRun(it.facts, res, log); err == nil {
			t.Errorf("%s: checks accept the doctored Result", c.name)
		}
	}
}

func TestChecksRejectDoctoredLogs(t *testing.T) {
	it := tiny(t)
	log := it.tap.log()
	firstUpload := -1
	for i, ev := range log {
		if !ev.recv && (ev.kind == transport.KindImportanceSet || ev.kind == transport.KindImportanceDelta) {
			firstUpload = i
			break
		}
	}
	if firstUpload < 0 {
		t.Fatal("no upload in the log")
	}
	dropped := append(append([]event(nil), log[:firstUpload]...), log[firstUpload+1:]...)
	if err := checkRun(it.facts, it.res, dropped); err == nil {
		t.Error("checks accept a log with one upload missing")
	}
	grown := append([]event(nil), log...)
	grown[firstUpload].size++
	if err := checkRun(it.facts, it.res, grown); err == nil {
		t.Error("checks accept a log whose recount is one byte off")
	}
}

func TestReplayRejectsAlteredPayload(t *testing.T) {
	it := tiny(t)
	for _, c := range it.tap.payloads {
		if c.kind != transport.KindHeader {
			continue
		}
		bad := append([]byte(nil), c.payload...)
		bad = append(bad, 0)
		if err := checkReplay([]captured{{c.kind, bad}}); err == nil {
			t.Error("replay accepts a header package with a trailing byte")
		}
		return
	}
	t.Fatal("no header package captured")
}

func TestInviteCheck(t *testing.T) {
	f := facts{clusters: [][]int{make([]int, 12)}, rounds: 2, sampleNum: 1, sampleDen: 5}
	invites := func(perRound ...int) []event {
		var log []event
		for r, n := range perRound {
			for i := 0; i < n; i++ {
				log = append(log, event{kind: transport.KindControl, from: "edge-0", round: r, invite: true})
			}
		}
		return log
	}
	// ceil(12/5) = 3.
	if err := checkInvites(f, invites(3, 3)); err != nil {
		t.Errorf("three invites per round of 12 rejected: %v", err)
	}
	if err := checkInvites(f, invites(3, 2)); err == nil {
		t.Error("two invites in a round of 12 accepted")
	}
	if err := checkInvites(f, invites(3, 4)); err == nil {
		t.Error("four invites in a round of 12 accepted")
	}
}

// TestTapPassesThrough runs the tiny config with no tap, the light tap
// and the tracing tap: bytes, per-kind counters and accuracies must be
// identical, since the tap forwards every message unchanged.
func TestTapPassesThrough(t *testing.T) {
	it := tiny(t) // tracing tap with payload capture
	sys, err := acme.NewSystem(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	bare, err := sys.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	light, err := runIteration(tinyWorkload, 5, 1, false, false, hooks{})
	if err != nil {
		t.Fatal(err)
	}
	bareAcc, _ := deviceAccuracy(bare)
	for _, c := range []struct {
		name string
		res  *core.Result
	}{{"traced tap", it.res}, {"light tap", light.res}} {
		got, _ := deviceAccuracy(c.res)
		if c.res.UploadBytes != bare.UploadBytes || c.res.DownlinkBytes != bare.DownlinkBytes ||
			c.res.Stats.TotalBytes() != bare.Stats.TotalBytes() ||
			!reflect.DeepEqual(c.res.Stats.BytesByKind(), bare.Stats.BytesByKind()) ||
			!reflect.DeepEqual(got, bareAcc) {
			t.Errorf("%s changes the run: bytes %d/%d/%d accuracy %v, without the tap %d/%d/%d accuracy %v",
				c.name, c.res.UploadBytes, c.res.DownlinkBytes, c.res.Stats.TotalBytes(), got,
				bare.UploadBytes, bare.DownlinkBytes, bare.Stats.TotalBytes(), bareAcc)
		}
	}
	if len(it.tap.spans) == 0 || len(light.tap.spans) != 0 {
		t.Errorf("spans: traced tap %d, light tap %d; want some and none", len(it.tap.spans), len(light.tap.spans))
	}
}

func TestPackageOf(t *testing.T) {
	for in, want := range map[string]string{
		"acme/internal/nn.(*Linear).Forward":        "nn",
		"acme/internal/tensor.ParallelFor.func1":    "tensor",
		"runtime.mallocgc":                          "runtime",
		"compress/flate.(*compressor).deflate":      "compress/flate",
		"acme/internal/wire.decodeAs[go.shape.int]": "wire",
		"acme/internal/core.f[acme/internal/nn.T]":  "core",
	} {
		if got := packageOf(in); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists
// in step with what the benchmark reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layers [][2]string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, [2]string{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, [2]string{m.Name, m.Unit})
	}
	it := tiny(t)
	r := newRunner(tinyWorkload, 5)
	r.refs[0], r.its = it, []*iteration{it}
	r.endToEndMetrics()
	var want [][2]string
	for _, n := range endToEndNames {
		want = append(want, [2]string{n, r.out.Metrics[n].Unit})
	}
	if len(r.out.Metrics) != len(endToEndNames) || !reflect.DeepEqual(e2e, want) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", e2e, want)
	}
	if !reflect.DeepEqual(layers, layerUnits) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark reports %v", layers, layerUnits)
	}
}
