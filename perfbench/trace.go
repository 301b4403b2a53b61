package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"acme/internal/core"
	"acme/internal/tensor"
	"acme/internal/transport"
	"acme/internal/wire"
)

// profiledPackages are the packages whose CPU self time the traced run
// reports, as <package>.cpu_s.
var profiledPackages = []string{"tensor", "nn", "prune", "nas", "importance", "aggregate",
	"wasserstein", "fleet", "wire", "transport", "data"}

// runtimeSamples are the runtime/metrics read around each traced Run.
var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:objects",
	"/sched/latencies:seconds",
}

// layerUnits names every per-layer metric with its unit, in report
// order.
var layerUnits = func() [][2]string {
	u := [][2]string{
		{"core.phase1_first_s", "s"}, {"core.phase1_s", "s"}, {"core.nas_s", "s"},
		{"core.fanout_s", "s"}, {"core.first_upload_s", "s"},
		{"core.gather_ms", "ms"}, {"core.aggregate_ms", "ms"}, {"core.downlink_ms", "ms"},
		{"core.device_importance_ms", "ms"},
		{"transport.messages", "count"}, {"transport.payload_bytes", "bytes"},
		{"transport.header_bytes", "bytes"}, {"transport.send_block_s", "s"},
		{"transport.edge_recv_wait_s", "s"}, {"transport.device_recv_wait_s", "s"},
		{"transport.cloud_busy_s", "s"},
		{"wire.encode_us_per_kb", "us/KB"}, {"wire.decode_us_per_kb", "us/KB"},
		{"wire.decode_allocs_per_msg", "count"}, {"wire.compression_ratio", "ratio"},
		{"tensor.matmul_gflops", "GFLOP/s"},
		{"runtime.gc_cpu_s", "s"}, {"runtime.gc_cycles", "count"},
		{"runtime.alloc_objects", "count"},
		{"runtime.sched_latency_p50_us", "us"}, {"runtime.sched_latency_p99_us", "us"},
		{"trace.overhead_s", "s"},
	}
	for _, p := range profiledPackages {
		u = append(u, [2]string{p + ".cpu_s", "s"})
	}
	return u
}()

// traced runs the workload with the heavy probes on: after the warm-up
// it alternates plain and traced iterations for the given seconds, and
// reports the per-layer metrics as medians over the traced ones plus
// the tracing overhead on run_s. Spans are written to path.
func traced(w workload, seed int64, seconds float64, path string) result {
	r := newRunner(w, seed)
	if !r.warmUp() {
		return r.out
	}
	var plain, tracedRun []float64
	layers := map[string][]float64{}
	var spans []span
	begin := time.Now()
	for j := 0; j < 2 || !overBudget(begin, j, seconds); j++ {
		// Each job runs plain, then traced, so the overhead compares
		// like with like.
		if it := r.iterate(j%w.jobs, false, hooks{}, false); it != nil {
			plain = append(plain, it.run)
		}
		if it, m := tracedIteration(r, j%w.jobs); it != nil {
			tracedRun = append(tracedRun, it.run)
			for k, v := range m {
				layers[k] = append(layers[k], v)
			}
			spans = append(spans, it.tap.spans...)
		}
	}
	if len(tracedRun) == 0 || len(plain) == 0 {
		r.fail("no traced or plain iteration succeeded")
		return r.out
	}
	layers["trace.overhead_s"] = []float64{median(tracedRun) - median(plain)}
	layers["tensor.matmul_gflops"] = []float64{matmulGFLOPS(r.refs[0].facts.cfg)}
	for _, lu := range layerUnits {
		xs, ok := layers[lu[0]]
		if !ok {
			r.fail("per-layer metric %s was not measured", lu[0])
			continue
		}
		r.out.Metrics[lu[0]] = metric{median(xs), lu[1]}
	}
	if err := writeSpans(path, spans); err != nil {
		r.fail("spans: %v", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d traced and %d plain iterations, run_s %.3f traced vs %.3f plain; %d spans in %s\n",
		w.name, seed, len(tracedRun), len(plain), median(tracedRun), median(plain), len(spans), path)
	return r.out
}

// tracedIteration runs job j with the CPU profile, runtime metrics,
// spans and payload capture on, and derives its per-layer metrics.
func tracedIteration(r *runner, j int) (*iteration, map[string]float64) {
	var prof bytes.Buffer
	before := make([]metrics.Sample, len(runtimeSamples))
	after := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		before[i].Name, after[i].Name = name, name
	}
	var profErr error
	it := r.iterate(j, true, hooks{
		beforeSetup: func() { profErr = pprof.StartCPUProfile(&prof) },
		beforeRun:   func() { metrics.Read(before) },
		afterRun: func() {
			metrics.Read(after)
			pprof.StopCPUProfile()
		},
	}, true)
	if it == nil {
		return nil, nil
	}
	if profErr != nil {
		r.fail("cpu profile: %v", profErr)
		return nil, nil
	}
	m, err := layerMetrics(it, prof.Bytes(), before, after)
	if err != nil {
		r.fail("job %d: %v", j, err)
		return nil, nil
	}
	return it, m
}

// layerMetrics derives one traced iteration's per-layer figures from
// its message log, spans, Result traces, CPU profile, runtime metrics
// and a replay of its captured payloads.
func layerMetrics(it *iteration, prof []byte, before, after []metrics.Sample) (map[string]float64, error) {
	m := map[string]float64{}
	log := it.tap.log()
	secs := func(d time.Duration) float64 { return d.Seconds() }

	// core: phase boundaries from the message log.
	var firstBB, lastBB time.Duration = -1, -1
	bbRecv := map[string]time.Duration{}
	hdrFirst, hdrLast := map[string]time.Duration{}, map[string]time.Duration{}
	upFirst := map[string]time.Duration{}
	for _, ev := range log {
		switch {
		case !ev.recv && ev.kind == transport.KindBackbone:
			if firstBB < 0 {
				firstBB = ev.at
			}
			lastBB = max(lastBB, ev.at)
		case ev.recv && ev.kind == transport.KindBackbone:
			bbRecv[ev.to] = ev.at
		case !ev.recv && ev.kind == transport.KindHeader:
			if _, ok := hdrFirst[ev.from]; !ok {
				hdrFirst[ev.from] = ev.at
			}
			hdrLast[ev.from] = max(hdrLast[ev.from], ev.at)
		case ev.recv && (ev.kind == transport.KindImportanceSet || ev.kind == transport.KindImportanceDelta):
			if _, ok := upFirst[ev.to]; !ok {
				upFirst[ev.to] = ev.at
			}
		}
	}
	if firstBB < 0 {
		return nil, fmt.Errorf("no backbone assignment in the message log")
	}
	m["core.phase1_first_s"] = secs(firstBB)
	m["core.phase1_s"] = secs(lastBB)
	var nas, fanout, firstUp []float64
	for e := range it.facts.clusters {
		edge := fmt.Sprintf("edge-%d", e)
		nas = append(nas, secs(hdrFirst[edge]-bbRecv[edge]))
		fanout = append(fanout, secs(hdrLast[edge]-hdrFirst[edge]))
		firstUp = append(firstUp, secs(upFirst[edge]-hdrLast[edge]))
	}
	m["core.nas_s"], m["core.fanout_s"], m["core.first_upload_s"] = median(nas), median(fanout), median(firstUp)
	var gather, agg, down, imp []float64
	for _, rs := range it.res.Phase2Rounds {
		gather = append(gather, float64(rs.GatherWallNS)/1e6)
		agg = append(agg, float64(rs.AggregateNS)/1e6)
		down = append(down, float64(rs.DownlinkNS)/1e6)
	}
	for _, ds := range it.res.DeviceRounds {
		imp = append(imp, float64(ds.ImportanceNS)/1e6)
	}
	m["core.gather_ms"], m["core.aggregate_ms"], m["core.downlink_ms"] = median(gather), median(agg), median(down)
	m["core.device_importance_ms"] = median(imp)

	// transport: counts from the log, waits from the spans.
	var msgs, payload float64
	for _, ev := range log {
		if !ev.recv {
			msgs++
			payload += float64(ev.size)
		}
	}
	m["transport.messages"] = msgs
	m["transport.payload_bytes"] = payload
	m["transport.header_bytes"] = msgs * transport.HeaderEstimate
	var sendBlock float64
	recvWait := map[string]float64{}
	var cloudEnd int64
	for _, sp := range it.tap.spans {
		d := float64(sp.End-sp.Start) / 1e9
		switch {
		case sp.Name == "run" || sp.Name == "role":
		case strings.HasPrefix(sp.Name, "send "):
			sendBlock += d
		default:
			recvWait[sp.Node] += d
		}
		if sp.Node == "cloud" && sp.Name != "role" {
			cloudEnd = max(cloudEnd, sp.End)
		}
	}
	var edgeWait, devWait []float64
	for e := range it.facts.clusters {
		edgeWait = append(edgeWait, recvWait[fmt.Sprintf("edge-%d", e)])
	}
	for _, d := range it.facts.devices {
		devWait = append(devWait, recvWait[d.Name()])
	}
	m["transport.send_block_s"] = sendBlock
	m["transport.edge_recv_wait_s"] = mean(edgeWait)
	m["transport.device_recv_wait_s"] = mean(devWait)
	m["transport.cloud_busy_s"] = float64(cloudEnd)/1e9 - recvWait["cloud"]

	// wire: replay the captured payloads through the public codecs.
	if err := wireReplay(it.tap.payloads, m); err != nil {
		return nil, err
	}
	it.tap.payloads = nil
	m["wire.compression_ratio"] = it.res.Stats.CompressionRatio()

	// CPU self time by package.
	cpu, err := cpuByPackage(prof)
	if err != nil {
		return nil, err
	}
	for _, p := range profiledPackages {
		m[p+".cpu_s"] = cpu[p]
	}

	// runtime/metrics deltas over Run.
	m["runtime.gc_cpu_s"] = after[0].Value.Float64() - before[0].Value.Float64()
	m["runtime.gc_cycles"] = float64(after[1].Value.Uint64() - before[1].Value.Uint64())
	m["runtime.alloc_objects"] = float64(after[2].Value.Uint64() - before[2].Value.Uint64())
	p50, p99 := histQuantiles(before[3].Value.Float64Histogram(), after[3].Value.Float64Histogram())
	m["runtime.sched_latency_p50_us"], m["runtime.sched_latency_p99_us"] = p50*1e6, p99*1e6
	return m, nil
}

// wireReplay decodes every captured payload, then re-encodes every
// decoded value, timing both passes per KB of payload and counting the
// heap objects decoding allocates per message.
func wireReplay(payloads []captured, m map[string]float64) error {
	if len(payloads) == 0 {
		return fmt.Errorf("no bulk payloads captured")
	}
	vals := make([]any, len(payloads))
	var kb float64
	for _, c := range payloads {
		kb += float64(len(c.payload)) / 1024
	}
	objs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(objs)
	obj0 := objs[0].Value.Uint64()
	start := time.Now()
	for i, c := range payloads {
		v, err := decodeKind(c.kind, c.payload)
		if err != nil {
			return err
		}
		vals[i] = v
	}
	dec := time.Since(start)
	metrics.Read(objs)
	allocs := objs[0].Value.Uint64() - obj0
	start = time.Now()
	for i, c := range payloads {
		codec := transport.Binary
		if _, ok := wire.EntropyInfo(c.payload); ok {
			codec = transport.Entropy
		}
		if _, err := codec.Encode(vals[i]); err != nil {
			return err
		}
	}
	enc := time.Since(start)
	m["wire.decode_us_per_kb"] = float64(dec.Microseconds()) / kb
	m["wire.encode_us_per_kb"] = float64(enc.Microseconds()) / kb
	m["wire.decode_allocs_per_msg"] = float64(allocs) / float64(len(payloads))
	return nil
}

// matmulGFLOPS times tensor.MatMulInto at the workload's backbone
// shape: a local batch of patch tokens times the first feed-forward
// weight.
func matmulGFLOPS(cfg core.Config) float64 {
	rows, inner, cols := cfg.LocalBatch*cfg.Backbone.NumPatches, cfg.Backbone.DModel, cfg.Backbone.Hidden
	rng := rand.New(rand.NewSource(1))
	a, b, dst := tensor.New(rows, inner), tensor.New(inner, cols), tensor.New(rows, cols)
	a.Randomize(rng, 1)
	b.Randomize(rng, 1)
	var calls int
	start := time.Now()
	for time.Since(start) < 300*time.Millisecond {
		for k := 0; k < 100; k++ {
			tensor.MatMulInto(dst, a, b)
		}
		calls += 100
	}
	return 2 * float64(rows*inner*cols) * float64(calls) / time.Since(start).Seconds() / 1e9
}

// histQuantiles returns the 50th and 99th percentiles of the samples
// added to a runtime histogram between two reads, each as the upper
// bound of its bucket (the lower bound for the open last bucket).
func histQuantiles(before, after *metrics.Float64Histogram) (float64, float64) {
	counts := make([]uint64, len(after.Counts))
	var total uint64
	for i := range counts {
		counts[i] = after.Counts[i] - before.Counts[i]
		total += counts[i]
	}
	q := func(p float64) float64 {
		want := uint64(math.Ceil(p * float64(total)))
		var seen uint64
		for i, c := range counts {
			seen += c
			if seen >= want && c > 0 {
				if hi := after.Buckets[i+1]; !math.IsInf(hi, 0) {
					return hi
				}
				return after.Buckets[i]
			}
		}
		return math.NaN()
	}
	return q(0.5), q(0.99)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// steadiness measures the workload runs times in one process with one
// seed, timing the calibration loop beside each, and prints every
// run's end-to-end metrics with their medians and quartiles. Bytes and
// accuracy must repeat exactly across the runs.
func steadiness(w workload, seed int64, seconds float64, runs int) result {
	var all []result
	var calib []float64
	out := result{Correct: true, Metrics: map[string]metric{}}
	for i := 0; i < runs; i++ {
		calib = append(calib, calibrate())
		res := endToEnd(w, seed, seconds)
		all = append(all, res)
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		out.Correct = out.Correct && res.Correct
	}
	fmt.Printf("%-16s %s\n", "run", strings.Repeat("-", 10))
	fmt.Printf("%-16s %v\n", "calibration_s", calib)
	for _, name := range endToEndNames {
		xs := make([]float64, 0, runs)
		for _, res := range all {
			if v, ok := res.Metrics[name]; ok {
				xs = append(xs, v.Value)
			}
		}
		if len(xs) == 0 {
			continue
		}
		q := quartiles(xs)
		fmt.Printf("%-16s median %.6g  q1 %.6g  q3 %.6g  spread %.4f  runs %v\n",
			name, median(xs), q[0], q[2], spread(xs), xs)
		out.Metrics[name] = metric{median(xs), all[0].Metrics[name].Unit}
		if exactMetric[name] {
			for _, x := range xs[1:] {
				if x != xs[0] {
					out.Correct = false
					fmt.Fprintf(os.Stderr, "perfbench: %s differs across runs of seed %d: %v\n", name, seed, xs)
					break
				}
			}
		}
	}
	return out
}

// endToEndNames lists the end-to-end metrics in report order;
// exactMetric marks those one seed must repeat bit for bit.
var (
	endToEndNames = []string{"setup_s", "run_s", "deploy_s", "round_ms", "cpu_s", "alloc_mb",
		"uplink_bytes", "downlink_bytes", "wire_bytes", "accuracy"}
	exactMetric = map[string]bool{"uplink_bytes": true, "downlink_bytes": true, "wire_bytes": true, "accuracy": true}
)
