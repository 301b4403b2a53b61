package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"acme"
	"acme/internal/core"
	"acme/internal/transport"
)

// runTimeout bounds one System.Run, so a hung run fails the benchmark
// well inside its own time limit instead of stalling it.
const runTimeout = 120 * time.Second

// setupRepeats is how many Systems each iteration builds to time set-up.
const setupRepeats = 5

// iteration is one NewSystem + System.Run of a workload and what was
// measured around it.
type iteration struct {
	run, cpu, allocMB      float64
	setups                 []float64 // NewSystem wall times
	deploy                 float64
	roundMS                []float64
	uplink, downlink, wire int64
	accuracy               float64
	deviceAcc              []float64 // final accuracy by device ID

	res   *core.Result
	tap   *tap
	facts facts
}

// hooks let the traced run wrap set-up and Run with its probes.
type hooks struct {
	beforeSetup, beforeRun, afterRun func()
}

// runIteration builds a fresh System for the workload, installs the
// tap on System.Net and runs it once.
func runIteration(w workload, seed int64, idx int, capture, traced bool, h hooks) (*iteration, error) {
	cfg := w.config(seed)
	call(h.beforeSetup)
	// Set-up takes a few milliseconds, so it is timed setupRepeats
	// times; the last System is the one that runs.
	var sys *core.System
	it := &iteration{}
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if sys, err = acme.NewSystem(cfg); err != nil {
			return nil, fmt.Errorf("NewSystem: %w", err)
		}
		it.setups = append(it.setups, time.Since(t0).Seconds())
	}
	it.facts = factsFor(sys, w)
	runtime.GC()
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	call(h.beforeRun)
	cpu0, alloc0 := cpuSeconds(), heapAllocBytes()
	start := time.Now()
	it.tap = newTap(sys.Net, idx, start, capture, traced)
	sys.Net = it.tap
	res, err := sys.Run(ctx)
	it.run = time.Since(start).Seconds()
	it.cpu = cpuSeconds() - cpu0
	it.allocMB = float64(heapAllocBytes()-alloc0) / 1e6
	call(h.afterRun)
	if err != nil {
		return it, fmt.Errorf("Run: %w", err)
	}
	it.res = res
	it.uplink, it.downlink, it.wire = res.UploadBytes, res.DownlinkBytes, res.Stats.TotalBytes()
	it.deviceAcc, it.accuracy = deviceAccuracy(res)
	log := it.tap.log()
	if it.deploy, err = deployTime(it.facts, log); err != nil {
		return it, err
	}
	it.roundMS = roundIntervals(len(it.facts.clusters), log)
	return it, nil
}

func call(f func()) {
	if f != nil {
		f()
	}
}

// deployTime is the time from the start of Run until the last device
// received its header package.
func deployTime(f facts, log []event) (float64, error) {
	got := make(map[string]time.Duration, len(f.devices))
	for _, ev := range log {
		if ev.recv && ev.kind == transport.KindHeader {
			if _, ok := got[ev.to]; !ok {
				got[ev.to] = ev.at
			}
		}
	}
	var last time.Duration
	for _, d := range f.devices {
		at, ok := got[d.Name()]
		if !ok {
			return 0, fmt.Errorf("%s never received its header package", d.Name())
		}
		last = max(last, at)
	}
	return last.Seconds(), nil
}

// roundIntervals returns, for every edge and every round after the
// first, the time between the edge's last downlinks of that round and
// the round before, in milliseconds.
func roundIntervals(edges int, log []event) []float64 {
	last := make([]map[int]time.Duration, edges)
	for e := range last {
		last[e] = make(map[int]time.Duration)
	}
	for _, ev := range log {
		if ev.recv || (ev.kind != transport.KindPersonalizedSet && ev.kind != transport.KindImportanceDownDelta) {
			continue
		}
		var e int
		if _, err := fmt.Sscanf(ev.from, "edge-%d", &e); err != nil || e < 0 || e >= edges {
			continue
		}
		last[e][ev.round] = max(last[e][ev.round], ev.at)
	}
	var out []float64
	for _, byRound := range last {
		rounds := make([]int, 0, len(byRound))
		for r := range byRound {
			rounds = append(rounds, r)
		}
		sort.Ints(rounds)
		for i := 1; i < len(rounds); i++ {
			if rounds[i] == rounds[i-1]+1 {
				out = append(out, float64(byRound[rounds[i]]-byRound[rounds[i-1]])/1e6)
			}
		}
	}
	return out
}

// subSeed is the Config seed of job j of a run with the given seed:
// each seed names its own disjoint set of jobs.
func subSeed(seed int64, j int) int64 { return seed*1000 + int64(j) }

// runner accumulates the outcome of a run's iterations. A run is made
// of whole rounds; a round runs each of the workload's jobs once.
type runner struct {
	w    workload
	seed int64
	out  result
	refs []*iteration // first iteration of each job: its reference bytes and accuracy
	its  []*iteration // timed iterations
}

func newRunner(w workload, seed int64) *runner {
	return &runner{w: w, seed: seed, out: result{Correct: true, Metrics: map[string]metric{}},
		refs: make([]*iteration, w.jobs)}
}

func (r *runner) fail(format string, args ...any) {
	r.out.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %s\n", r.w.name, r.seed, fmt.Sprintf(format, args...))
}

// warmUp runs job 0 once, untimed: it fills caches and finishes lazy
// set-up, and its captured payloads feed the replay check.
func (r *runner) warmUp() bool {
	it := r.iterate(0, false, hooks{}, true)
	if it == nil {
		return false
	}
	if err := checkReplay(it.tap.payloads); err != nil {
		r.fail("replay: %v", err)
	}
	it.tap.payloads = nil
	return true
}

// iterate runs and checks one iteration of job j, counting it as
// attempted and, when Run fails, as failed. The first iteration of a
// job is its reference; every later one must repeat its bytes and
// per-device accuracy exactly.
func (r *runner) iterate(j int, traced bool, h hooks, capture bool) *iteration {
	r.out.Attempted++
	it, err := runIteration(r.w, subSeed(r.seed, j), r.out.Attempted, capture, traced, h)
	if err != nil {
		r.out.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d job %d: %v\n", r.w.name, r.seed, j, err)
		return nil
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d job %d: setup %.4f s, run %.3f s, deploy %.3f s, cpu %.3f s, alloc %.1f MB\n",
		r.w.name, r.seed, j, median(it.setups), it.run, it.deploy, it.cpu, it.allocMB)
	if err := checkRun(it.facts, it.res, it.tap.log()); err != nil {
		r.fail("job %d: %v", j, err)
	}
	if ref := r.refs[j]; ref == nil {
		r.refs[j] = it
	} else if !sameOutput(ref, it) {
		r.fail("job %d: bytes %d/%d/%d accuracy %v differ from its first run's %d/%d/%d accuracy %v",
			j, it.uplink, it.downlink, it.wire, it.accuracy, ref.uplink, ref.downlink, ref.wire, ref.accuracy)
	}
	return it
}

// overBudget reports whether, n steps into a measurement begun at
// begin, one more step of the mean length so far would end more than
// half a step past the given seconds.
func overBudget(begin time.Time, n int, seconds float64) bool {
	elapsed := time.Since(begin).Seconds()
	return elapsed+elapsed/float64(n)/2 > seconds
}

// sameOutput: one seed gives identical bytes and per-device accuracy,
// run after run.
func sameOutput(a, b *iteration) bool {
	if a.uplink != b.uplink || a.downlink != b.downlink || a.wire != b.wire || len(a.deviceAcc) != len(b.deviceAcc) {
		return false
	}
	for i := range a.deviceAcc {
		if a.deviceAcc[i] != b.deviceAcc[i] {
			return false
		}
	}
	return true
}

// deviceAccuracy returns the final accuracies ordered by device ID and
// their mean, summed in that order. It is Result.MeanAccuracyFinal
// with a fixed summation order: that method sums in report arrival
// order, so its last bits vary from run to run of one seed.
func deviceAccuracy(res *core.Result) ([]float64, float64) {
	reps := append([]core.DeviceReport(nil), res.Reports...)
	sort.Slice(reps, func(i, j int) bool { return reps[i].DeviceID < reps[j].DeviceID })
	accs := make([]float64, len(reps))
	var sum float64
	for i, rep := range reps {
		accs[i] = rep.AccuracyFinal
		sum += rep.AccuracyFinal
	}
	if len(accs) == 0 {
		return nil, 0
	}
	return accs, sum / float64(len(accs))
}

// endToEnd measures whole rounds of the workload's jobs for about the
// given seconds after a warm-up, and reports the end-to-end metrics.
func endToEnd(w workload, seed int64, seconds float64) result {
	r := newRunner(w, seed)
	if !r.warmUp() {
		return r.out
	}
	begin := time.Now()
	for n := 0; n == 0 || !overBudget(begin, n, seconds); n++ {
		for j := 0; j < w.jobs; j++ {
			if it := r.iterate(j, false, hooks{}, false); it != nil {
				r.its = append(r.its, it)
			}
		}
	}
	r.endToEndMetrics()
	return r.out
}

// endToEndMetrics reports the timings as medians over the timed
// iterations, and bytes and accuracy as means over the jobs.
func (r *runner) endToEndMetrics() {
	if len(r.its) == 0 {
		r.fail("no timed iteration succeeded")
		return
	}
	for j, ref := range r.refs {
		if ref == nil {
			r.fail("job %d never succeeded", j)
			return
		}
	}
	pick := func(f func(*iteration) float64) float64 {
		xs := make([]float64, len(r.its))
		for i, it := range r.its {
			xs[i] = f(it)
		}
		return median(xs)
	}
	perJob := func(f func(*iteration) float64) float64 {
		xs := make([]float64, len(r.refs))
		for i, it := range r.refs {
			xs[i] = f(it)
		}
		return mean(xs)
	}
	var rounds []float64
	for _, it := range r.its {
		rounds = append(rounds, it.roundMS...)
	}
	m := r.out.Metrics
	var setups []float64
	for _, it := range r.its {
		setups = append(setups, it.setups...)
	}
	m["setup_s"] = metric{median(setups), "s"}
	m["run_s"] = metric{pick(func(it *iteration) float64 { return it.run }), "s"}
	m["deploy_s"] = metric{pick(func(it *iteration) float64 { return it.deploy }), "s"}
	m["round_ms"] = metric{median(rounds), "ms"}
	m["cpu_s"] = metric{pick(func(it *iteration) float64 { return it.cpu }), "s"}
	m["alloc_mb"] = metric{pick(func(it *iteration) float64 { return it.allocMB }), "MB"}
	m["uplink_bytes"] = metric{perJob(func(it *iteration) float64 { return float64(it.uplink) }), "bytes"}
	m["downlink_bytes"] = metric{perJob(func(it *iteration) float64 { return float64(it.downlink) }), "bytes"}
	m["wire_bytes"] = metric{perJob(func(it *iteration) float64 { return float64(it.wire) }), "bytes"}
	m["accuracy"] = metric{perJob(func(it *iteration) float64 { return it.accuracy }), "frac"}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d timed iterations, %d round intervals\n",
		r.w.name, r.seed, len(r.its), len(rounds))
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// heapAllocBytes is the cumulative count of bytes allocated on the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

var calibrationSink float64

// calibrate times a fixed serial floating-point loop: the same work in
// every run, so a change in its time is a change in the host.
func calibrate() float64 {
	start := time.Now()
	x := 1.0
	for i := 0; i < 100_000_000; i++ {
		x = x*1.0000001 + 1e-9
	}
	calibrationSink = x
	return time.Since(start).Seconds()
}
