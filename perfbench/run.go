package main

// The two kinds of run: the untraced run that reports the end-to-end
// metrics, and the traced run that reports the per-layer metrics.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// outRoot is the output directory of this process (set by main).
var outRoot = filepath.Join(".bench_build", "perfbench")

// journalRoot holds this process's journals; each run removes it at exit.
func journalRoot() string {
	return filepath.Join(outRoot, "journal-"+strconv.Itoa(os.Getpid()))
}

// endToEnd lists the end-to-end metrics of the result line with their
// units: the ones steady enough across seeds to bound a regression.
var endToEnd = []struct{ name, unit string }{
	{"events_per_s", "1/s"},
	{"cpu_us_per_event", "us"},
	{"call_p50_us", "us"},
	{"state_mb", "MB"},
	{"setup_s", "s"},
	{"recovery_s", "s"},
}

// unbounded lists end-to-end figures that are measured and recorded but
// left out of the result line: on a shared host their spread across seeds
// exceeds any bound a regression gate could use.
var unbounded = []struct{ name, unit string }{
	{"call_p99_us", "us"},
	{"answer_lag_p50_ms", "ms"},
	{"answer_lag_p99_ms", "ms"},
}

// perLayer lists the per-layer metrics with their units.
var perLayer = []struct{ name, unit string }{
	{"stream.ingest.ns_per_item", "ns"},
	{"stream.ingest.reorder_peak", "count"},
	{"stream.ingest.dropped_frac", "ratio"},
	{"esl.push.ns_per_event", "ns"},
	{"esl.sink.ns_per_event", "ns"},
	{"esl.route.skip_ratio", "ratio"},
	{"esl.route.deliveries_per_event", "count"},
	{"esl.rows_per_event", "count"},
	{"esl.drain_ms", "ms"},
	{"esl.register.ms_per_query", "ms"},
	{"core.push.ns_per_tuple", "ns"},
	{"core.advance.ns_per_call", "ns"},
	{"core.advance.share", "ratio"},
	{"core.partitions", "count"},
	{"core.state_tuples", "count"},
	{"core.runs_peak", "count"},
	{"spec.gate.ns_per_item", "ns"},
	{"spec.reconcile.ns_per_op", "ns"},
	{"spec.retract_ratio", "ratio"},
	{"spec.pending_peak", "count"},
	{"db.probe.ns", "ns"},
	{"db.probe.allocs", "count"},
	{"db.versions", "count"},
	{"snapshot.journal.ns_per_item", "ns"},
	{"snapshot.journal.bytes_per_item", "bytes"},
	{"snapshot.checkpoint.ms", "ms"},
	{"snapshot.checkpoint.bytes", "bytes"},
	{"snapshot.restore.ms", "ms"},
	{"snapshot.replay.decode_ns_per_item", "ns"},
	{"cluster.push.ns_per_batch", "ns"},
	{"cluster.drain_ms", "ms"},
	{"cluster.wire.bytes_per_event", "bytes"},
	{"cluster.node_skew", "ratio"},
	{"stream.fanin.ns_per_row", "ns"},
	{"runtime.alloc_bytes_per_event", "bytes"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.heap_peak_mb", "MB"},
	{"trace.overhead", "ratio"},
	{"trace.unattributed_share", "ratio"},
}

// setupSamples is how many set-ups a run times when they are cheap enough.
const setupSamples = 31

// tally accumulates correctness over the repetitions of a run.
type tally struct {
	attempted, failed int
}

func (t *tally) add(expected, bad int) {
	t.attempted += expected
	t.failed += bad
}

// repeat runs repetitions until the budget is spent, at least minN have
// run and they made at least needCalls ingestion calls.
func repeat(budget time.Duration, minN, callsPerRep, needCalls int, body func(i int) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		if i >= minN && i*callsPerRep >= needCalls && time.Since(start) >= budget {
			return nil
		}
		if err := body(i); err != nil {
			return err
		}
	}
}

// checked runs one repetition with its recovery and output checks. An
// untraced repetition then measures its state (engineState), which drops
// its system and Drain records; a traced one keeps them for the replays.
func checked(j *job, tr *tracer, t *tally) (*repOut, time.Duration, []float64, []float64, error) {
	r, err := runRep(j, tr)
	if err != nil {
		return nil, 0, nil, nil, err
	}
	recovery, rbad, err := j.recover(r, tr)
	if err != nil {
		r.finish()
		return nil, 0, nil, nil, fmt.Errorf("recovery: %w", err)
	}
	if err := r.finish(); err != nil {
		return nil, 0, nil, nil, fmt.Errorf("close: %w", err)
	}
	expected, bad, detail := j.check(r)
	wall, evLag, late := j.lags(r)
	t.add(expected+len(j.calls)+1+len(evLag), bad+r.callErrs+rbad+late)
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check: %s\n", j.name, detail)
	}
	if late > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d answers later than the event-time bound %.1f ms\n",
			j.name, late, float64(j.lagBound)/1e6)
	}
	if tr == nil {
		r.engineState(wall, evLag)
	}
	return r, recovery, wall, evLag, nil
}

// facts are a run's deterministic figures: the same for one seed at any
// speed. The self-tests compare them across runs.
type facts map[string]float64

func runEndToEnd(wl workload, o runOpts) (result, facts, error) {
	j, err := wl(o.seed, o.scale)
	if err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(journalRoot())
	var (
		t                   tally
		wallSum, cpuSum     time.Duration
		state, setup, recov []float64
		allCalls, evLag     []float64
		callUs, lagMs       [][]float64
		rows, reps          int
	)
	err = repeat(o.budget, minReps, len(j.calls), o.minCalls, func(int) error {
		r, recovery, wall, ev, err := checked(j, nil, &t)
		if err != nil {
			return err
		}
		reps++
		wallSum += r.wall
		cpuSum += r.cpu
		fmt.Fprintf(os.Stderr, "perfbench: %s rep %d: %.0f events/s, %.2f us cpu/event, answer lag p50 %.4f ms, state %.3f MB, setup %.4f s, recovery %.4f s\n",
			j.name, reps, float64(j.readings)/r.wall.Seconds(), float64(r.cpu.Microseconds())/float64(j.readings),
			quantile(wall, 0.5), r.stateBytes/1e6, r.setup.Seconds(), recovery.Seconds())
		state = append(state, r.stateBytes/1e6)
		setup = append(setup, r.setup.Seconds())
		recov = append(recov, recovery.Seconds())
		calls := make([]float64, len(r.callDur))
		for i, d := range r.callDur {
			calls[i] = float64(d) / 1e3
		}
		callUs = append(callUs, calls)
		allCalls = append(allCalls, calls...)
		lagMs = append(lagMs, wall)
		evLag = append(evLag, ev...)
		rows = r.rows
		return nil
	})
	if err != nil {
		return result{}, nil, err
	}
	// Set-up is short next to a repetition: sample it further, within a
	// twentieth of the budget, so its figure rests on enough samples.
	for extra := time.Now(); len(setup) < setupSamples && time.Since(extra) < o.budget/20; {
		// Each repetition sets up right after a forced collection; so do these.
		runtime.GC()
		t0 := time.Now()
		sys, err := j.open(&sink{base: t0}, nil)
		d := time.Since(t0)
		if err != nil {
			return result{}, nil, fmt.Errorf("set-up: %w", err)
		}
		if err := sys.close(); err != nil {
			return result{}, nil, fmt.Errorf("close: %w", err)
		}
		setup = append(setup, d.Seconds())
	}
	fmt.Printf("%s: %d reps, %d readings/rep, %d calls/rep, %d rows/rep, event-time answer lag p50 %.1f ms p99 %.1f ms\n",
		j.name, reps, j.readings, len(j.calls), rows, quantile(evLag, 0.5), quantile(evLag, 0.99))
	// Throughput, CPU and the median call are taken over all repetitions
	// together, and set-up and recovery as trimmed means: when host load
	// shifts during a run they blend the run's phases instead of jumping to
	// whichever phase holds the middle repetition.
	readings := float64(j.readings * reps)
	m := map[string]float64{
		"events_per_s":      readings / wallSum.Seconds(),
		"cpu_us_per_event":  float64(cpuSum.Microseconds()) / readings,
		"call_p50_us":       quantile(allCalls, 0.5),
		"call_p99_us":       groupedQuantile(callUs, 0.99),
		"answer_lag_p50_ms": groupedQuantile(lagMs, 0.5),
		"answer_lag_p99_ms": groupedQuantile(lagMs, 0.99),
		"state_mb":          median(state),
		"setup_s":           trimmedMean(setup),
		"recovery_s":        trimmedMean(recov),
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, e := range endToEnd {
		res.Metrics[e.name] = metric{Value: m[e.name], Unit: e.unit}
		fmt.Printf("  %-20s %14.4f %s\n", e.name, m[e.name], e.unit)
	}
	res.Unbounded = map[string]metric{}
	for _, e := range unbounded {
		res.Unbounded[e.name] = metric{Value: m[e.name], Unit: e.unit}
		fmt.Printf("  %-20s %14.4f %s (recorded, not bounded)\n", e.name, m[e.name], e.unit)
	}
	f := facts{"rows": float64(rows), "event_lag_p50_ms": quantile(evLag, 0.5), "event_lag_p99_ms": quantile(evLag, 0.99)}
	return res, f, nil
}

func runTraced(wl workload, o runOpts) (result, layerOut, error) {
	j, err := wl(o.seed, o.scale)
	if err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(journalRoot())
	tr := newTracer()
	var (
		t              tally
		plain, traced  []float64
		alloc, gcShare []float64
		heapPeak       float64
		last           *repOut
	)
	// Untraced and traced repetitions alternate; half the budget is left
	// for the layer replays.
	err = repeat(o.budget/2, 4, 0, 0, func(i int) error {
		var rtr *tracer
		if i%2 == 1 {
			rtr = tr
		}
		r, _, _, _, err := checked(j, rtr, &t)
		if err != nil {
			return err
		}
		eps := float64(j.readings) / r.wall.Seconds()
		if rtr == nil {
			plain = append(plain, eps)
			alloc = append(alloc, float64(r.allocBytes)/float64(j.readings))
			gcShare = append(gcShare, r.gcCPU)
			heapPeak = max(heapPeak, float64(r.heapPeak)/1e6)
		} else {
			traced = append(traced, eps)
			last = r
		}
		return nil
	})
	if err != nil {
		return result{}, nil, err
	}

	out := layerOut{}
	released := replayIngest(tr, j, out)
	if err := replayCore(tr, j.patterns, released, j.advanceEvery, out); err != nil {
		return result{}, nil, err
	}
	replaySpec(tr, j, last.recs, out)
	if err := replayDB(tr, j, last.eng, out); err != nil {
		return result{}, nil, fmt.Errorf("db replay: %w", err)
	}
	if err := replayJournal(tr, j, filepath.Join(journalRoot(), "replay"), out); err != nil {
		return result{}, nil, fmt.Errorf("journal replay: %w", err)
	}
	replayFanIn(tr, last.recs, out)
	if err := replayCluster(tr, j, out); err != nil {
		return result{}, nil, fmt.Errorf("cluster replay: %w", err)
	}

	// Engine figures from the traced repetitions.
	ev := float64(j.readings * len(traced))
	self := tr.selfTimes()
	var engineSelf float64
	for _, name := range []string{"esl.push_tuple", "esl.push_batch", "esl.drain"} {
		if r := self[name]; r != nil {
			engineSelf += float64(r.own)
		}
	}
	pushSelf := engineSelf
	if r := self["esl.drain"]; r != nil {
		pushSelf -= float64(r.own)
		out["esl.drain_ms"] = float64(r.total) / float64(r.count) / 1e6
	}
	out["esl.push.ns_per_event"] = pushSelf / ev
	if r := self["esl.sink"]; r != nil {
		out["esl.sink.ns_per_event"] = float64(r.total) / ev
	}
	if r := self["esl.register"]; r != nil {
		out["esl.register.ms_per_query"] = float64(r.total) / float64(r.count) / 1e6
	}
	if last.hasStats {
		st := last.stats
		if all := st.RoutedDeliveries + st.SkippedDeliveries; all > 0 {
			out["esl.route.skip_ratio"] = float64(st.SkippedDeliveries) / float64(all)
		}
		out["esl.route.deliveries_per_event"] = float64(st.RoutedDeliveries) / float64(j.readings)
	}
	out["esl.rows_per_event"] = float64(len(last.recs)) / float64(j.readings)
	if r := self["snapshot.checkpoint"]; r != nil {
		out["snapshot.checkpoint.ms"] = float64(r.total) / float64(r.count) / 1e6
	}
	if n, b := tr.accNs("snapshot.checkpoint.bytes"); n > 0 {
		out["snapshot.checkpoint.bytes"] = float64(b) / float64(n)
	}
	if r := self["snapshot.restore"]; r != nil {
		out["snapshot.restore.ms"] = float64(r.total) / float64(r.count) / 1e6
	}
	out["runtime.alloc_bytes_per_event"] = median(alloc)
	out["runtime.gc_cpu_share"] = median(gcShare)
	out["runtime.heap_peak_mb"] = heapPeak
	out["trace.overhead"] = median(plain) / median(traced)
	// Replays run once over one repetition's input; the engine spans cover
	// every traced repetition. Only the layers the workload's engine runs
	// count as covered.
	var replayed float64
	for _, name := range j.engineLayers {
		_, ns := tr.accNs(name)
		replayed += float64(ns)
	}
	if engineSelf > 0 {
		out["trace.unattributed_share"] = max(0, 1-replayed/(engineSelf/float64(len(traced))))
	}

	if err := tr.writeFiles(o.outDir, j.name); err != nil {
		return result{}, nil, err
	}
	var tb strings.Builder
	tr.writeTable(&tb)
	fmt.Print(tb.String())
	fmt.Printf("%s: core.partitions at half the feed %.0f, at the end %.0f; core.state_tuples %.0f and %.0f\n",
		j.name, out["core.partitions_at_half"], out["core.partitions"],
		out["core.state_tuples_at_half"], out["core.state_tuples"])

	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, p := range perLayer {
		res.Metrics[p.name] = metric{Value: out[p.name], Unit: p.unit}
		fmt.Printf("  %-36s %16.4f %s\n", p.name, out[p.name], p.unit)
	}
	return res, out, nil
}
