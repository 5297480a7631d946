package main

// The repetition loop shared by every workload: set the system up, feed the
// pre-built input through its public ingestion calls with a single caller
// (closed loop), drain, measure, then check the output against the
// workload's reference. Only calls into the system under test run between
// the clock reads; input synthesis, reference answers and output checks
// happen before or after.

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/esl"
	"repro/internal/spec"
	"repro/internal/stream"
)

// runOpts are the command-line settings of one run.
type runOpts struct {
	seed   int64
	budget time.Duration
	scale  int
	outDir string
	// minCalls is the fewest ingestion calls a run makes (minCalls in
	// production; the self-tests lower it).
	minCalls int
}

// Minimums per run: enough repetitions for a median, enough ingestion calls
// for a 99th percentile with ten samples above it.
const (
	minReps  = 3
	minCalls = 1000
)

// fullScale is the standard input size; the self-tests run at a few
// percent of it.
const fullScale = 100

// workload builds a job from a seed. scale is the input size in percent.
type workload func(seed int64, scale int) (*job, error)

var workloads = map[string]workload{
	"epc-line":     epcLine,
	"dock-fanout":  dockFanout,
	"late-durable": lateDurable,
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// system is one set-up instance of the system under test.
type system struct {
	// push performs one ingestion call: PushTuple for a single-reading call,
	// PushBatch otherwise.
	push  func(call []stream.Item) error
	drain func() error
	// close releases the instance and waits for every goroutine it started.
	close func() error
	// stats reads the engine counters after Drain (nil for the cluster
	// replay).
	stats func() esl.EngineStats
	// eng is the serial engine, when there is one.
	eng *esl.Engine
	// wire counts the bytes the cluster connections carried and client is
	// the cluster feed (cluster replay only).
	wire   *wireCounter
	client *cluster.Client
}

// job is one workload instance: generated input, how to set the system up,
// and the reference its output is checked against.
type job struct {
	name  string
	items []stream.Item // arrival order
	calls [][]stream.Item
	// readings counts tuple items (duplicates included).
	readings int
	// queryNames indexes sink tags; noLag marks queries whose rows do not
	// count toward answer lag (EXCEPTION_SEQ timer rows).
	queryNames []string
	noLag      map[int]bool
	// rowsHint sizes the sink's record array: the most rows a repetition
	// delivered so far, with an eighth to spare.
	rowsHint int
	// lagBound is the largest event-time lag a first answer may show: the
	// slack plus the widest event-time step of one ingestion call.
	lagBound stream.Timestamp
	// callOf maps a timestamp to the first call carrying a reading at it;
	// hw is the event-time high-water after each call.
	callOf map[stream.Timestamp]int32
	hw     []stream.Timestamp
	open   func(s *sink, tr *tracer) (*system, error)
	// check compares one repetition's output with the reference and returns
	// the number of expected rows and of wrong or missing ones.
	check func(r *repOut) (expected, bad int, detail string)
	// recover measures recovery after the repetition (off the clock) and
	// reports any divergence of the recovered output.
	recover func(r *repOut, tr *tracer) (time.Duration, int, error)
	// patterns are the workload's SEQ patterns for the core replay;
	// advanceEvery is how many tuples the engine pushes between two
	// Advance calls (1 on the per-item paths, the batch size on the
	// batched in-order path).
	patterns     []corePattern
	advanceEvery int
	// slack and dedup configure the ingest-boundary replay like the engine.
	slack time.Duration
	dedup bool
	// engineLayers names the replayed layers (tracer accounts) the
	// workload's engine itself runs; trace.unattributed_share subtracts
	// only these from the engine's span time.
	engineLayers []string
	// clusterDDL, clusterQueries and clusterOpts define the job the cluster
	// replay runs.
	clusterDDL     string
	clusterQueries []querySpec
	clusterOpts    []esl.Option
}

// rec is one delivered output record.
type rec struct {
	q   int32
	at  int64 // ns since the repetition's base time
	row esl.Row
}

// sink collects output records. Cluster rows arrive on client goroutines,
// so appends are locked; the cluster replay is never traced.
type sink struct {
	mu   sync.Mutex
	base time.Time
	recs []rec
	tr   *tracer
}

func (s *sink) fn(q int) func(esl.Row) {
	return func(r esl.Row) {
		if s.tr != nil {
			sp := s.tr.begin("esl.sink")
			s.add(q, r)
			s.tr.end(sp)
			return
		}
		s.add(q, r)
	}
}

func (s *sink) add(q int, r esl.Row) {
	at := int64(time.Since(s.base))
	s.mu.Lock()
	s.recs = append(s.recs, rec{q: int32(q), at: at, row: r})
	s.mu.Unlock()
}

// repOut is everything one repetition measured.
type repOut struct {
	setup, wall, cpu, drain time.Duration
	// heapFed is the live heap after a forced GC at the end of the feed,
	// before Drain, when feedRows records had been delivered; stateBytes is
	// the part of it the system held (see engineState).
	heapFed            uint64
	feedRows           int
	stateBytes         float64
	callStart, callDur []int64
	callErrs           int
	// recs are the delivered records (engineState keeps only the first
	// feedRows); rows counts all of them.
	recs       []rec
	rows       int
	stats      esl.EngineStats
	hasStats   bool
	sys        *system
	allocBytes uint64
	gcCPU      float64
	heapPeak   uint64
	// eng is the repetition's serial engine.
	eng *esl.Engine
}

// splitCalls cuts the items into ingestion calls of the given size (one
// PushTuple per reading when batch <= 1) and counts the readings.
func (j *job) splitCalls(batch int) {
	j.calls = j.calls[:0]
	j.advanceEvery = max(batch, 1)
	if batch <= 1 {
		for i := range j.items {
			j.calls = append(j.calls, j.items[i:i+1])
		}
	} else {
		for off := 0; off < len(j.items); off += batch {
			hi := min(off+batch, len(j.items))
			j.calls = append(j.calls, j.items[off:hi])
		}
	}
	j.readings = 0
	for _, it := range j.items {
		if it.Tuple != nil {
			j.readings++
		}
	}
	j.indexFeed()
}

// runRep performs one repetition. tr is nil for untraced repetitions.
func runRep(j *job, tr *tracer) (*repOut, error) {
	out := &repOut{callStart: make([]int64, len(j.calls)), callDur: make([]int64, len(j.calls))}
	// The sink's record array is sized from earlier repetitions, so it does
	// not grow inside the timed region.
	s := &sink{base: time.Now(), tr: tr, recs: make([]rec, 0, j.rowsHint)}
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	sys, err := j.open(s, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	out.setup = time.Since(t0)
	out.sys, out.eng = sys, sys.eng

	gc0 := gcCPUSeconds()
	cpu0 := cpuTime()
	start := time.Now()
	for i, c := range j.calls {
		var sp span
		if tr != nil {
			sp = tr.begin(pushSpan(len(c)))
		}
		cs := time.Now()
		err := sys.push(c)
		ce := time.Now()
		if tr != nil {
			tr.end(sp)
		}
		out.callStart[i] = int64(cs.Sub(s.base))
		out.callDur[i] = int64(ce.Sub(cs))
		if err != nil {
			out.callErrs++
			if out.callErrs == 1 {
				fmt.Fprintf(os.Stderr, "perfbench: %s: call %d: %v\n", j.name, i, err)
			}
		}
	}
	feed := time.Since(start)
	cpuFeed := cpuTime() - cpu0
	gcFeed := gcCPUSeconds() - gc0
	var msFeed runtime.MemStats
	runtime.ReadMemStats(&msFeed)
	out.heapPeak = msFeed.HeapInuse

	// State is measured outside the clock: the forced collection is not
	// the system's work.
	runtime.GC()
	out.heapFed = liveHeap()
	s.mu.Lock()
	out.feedRows = len(s.recs)
	s.mu.Unlock()

	gc1 := gcCPUSeconds()
	cpu1 := cpuTime()
	d0 := time.Now()
	var sp span
	if tr != nil {
		sp = tr.begin("esl.drain")
	}
	derr := sys.drain()
	if tr != nil {
		tr.end(sp)
	}
	out.drain = time.Since(d0)
	out.cpu = cpuFeed + cpuTime() - cpu1
	gcAll := gcFeed + gcCPUSeconds() - gc1
	out.wall = feed + out.drain
	if derr != nil {
		return nil, fmt.Errorf("drain: %w", derr)
	}
	if sys.stats != nil {
		out.stats, out.hasStats = sys.stats(), true
	}

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	// Allocation includes set-up; the forced collections are excluded from
	// the GC share.
	out.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	if out.cpu > 0 {
		out.gcCPU = gcAll / out.cpu.Seconds()
	}

	s.mu.Lock()
	out.recs = s.recs
	s.mu.Unlock()
	out.rows = len(out.recs)
	j.rowsHint = max(j.rowsHint, out.rows+out.rows/8)
	return out, nil
}

// pushSpan names the span of one ingestion call.
func pushSpan(n int) string {
	if n == 1 {
		return "esl.push_tuple"
	}
	return "esl.push_batch"
}

// engineState sets stateBytes to the part of the end-of-feed heap that the
// system held: heapFed minus the live heap once the closed system is
// dropped, with the records delivered up to then still held and the ones
// Drain delivered released. keep are the benchmark's own buffers
// allocated since the end of the feed that are still live (float64
// slices); their bytes are not the system's. It drops the system and the
// Drain records, so it runs after every check of the repetition.
func (r *repOut) engineState(keep ...[]float64) {
	r.sys, r.eng = nil, nil
	clear(r.recs[r.feedRows:])
	r.recs = r.recs[:r.feedRows]
	runtime.GC()
	after := float64(liveHeap())
	for _, k := range keep {
		after -= float64(8 * cap(k))
	}
	r.stateBytes = float64(r.heapFed) - after
}

// finish closes the system of a repetition.
func (r *repOut) finish() error {
	if r.sys == nil || r.sys.close == nil {
		return nil
	}
	err := r.sys.close()
	r.sys = nil
	return err
}

// firstAnswers yields the records that count as a match's first answer:
// every record except retractions, minus the queries excluded from lag.
func (j *job) firstAnswers(recs []rec, fn func(rec)) {
	for _, rc := range recs {
		if j.noLag[int(rc.q)] {
			continue
		}
		if pol, _, _ := esl.RecordTags(rc.row); pol == spec.Retract {
			continue
		}
		fn(rc)
	}
}

// lags computes the wall-clock first-answer latency of every first answer,
// in milliseconds: delivery time minus the start of the ingestion call that
// handed the engine the reading the row is stamped with. It also checks the
// event-time lag bound and returns the number of answers that broke it.
func (j *job) lags(r *repOut) (wall []float64, evLag []float64, late int) {
	j.firstAnswers(r.recs, func(rc rec) {
		if ci, ok := j.callOf[rc.row.TS]; ok {
			wall = append(wall, float64(rc.at-r.callStart[ci])/1e6)
		}
		// The call in progress at delivery (or the last one, for rows
		// released by Drain) gives the feed's event-time high-water.
		k := sort.Search(len(r.callStart), func(i int) bool { return r.callStart[i] > rc.at }) - 1
		if k < 0 {
			k = 0
		}
		lag := j.hw[k] - rc.row.TS
		if lag < 0 {
			lag = 0
		}
		evLag = append(evLag, float64(lag)/1e6)
		if lag > j.lagBound {
			late++
		}
	})
	return wall, evLag, late
}

// indexFeed maps each timestamp to the first call carrying a reading at it,
// and each call to the event-time high-water after it.
func (j *job) indexFeed() {
	callOf := make(map[stream.Timestamp]int32, len(j.items))
	hw := make([]stream.Timestamp, len(j.calls))
	cur := stream.MinTimestamp
	for ci, c := range j.calls {
		for _, it := range c {
			if it.TS > cur {
				cur = it.TS
			}
			if _, ok := callOf[it.TS]; !ok {
				callOf[it.TS] = int32(ci)
			}
		}
		hw[ci] = cur
	}
	j.callOf, j.hw = callOf, hw
}

// maxStep is the widest event-time advance of one ingestion call.
func maxStep(hw []stream.Timestamp) stream.Timestamp {
	var m stream.Timestamp
	for i := 1; i < len(hw); i++ {
		if d := hw[i] - hw[i-1]; d > m {
			m = d
		}
	}
	if len(hw) > 0 && m == 0 {
		m = 1
	}
	return m
}

// gcCPUSeconds reads the runtime's estimate of CPU time spent in GC.
func gcCPUSeconds() float64 {
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return sample[0].Value.Float64()
}

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// trimmedMean is the mean of v without its lowest and highest fifth (v is
// sorted in place).
func trimmedMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	k := len(v) / 5
	sum := 0.0
	for _, x := range v[k : len(v)-k] {
		sum += x
	}
	return sum / float64(len(v)-2*k)
}

// groupedQuantile joins consecutive repetitions' samples into groups of at
// least minGroup samples (a short tail joins the last group), takes the
// q-quantile within each group and returns the median over the groups. A
// 99th percentile then always has ten samples beyond it, and one disturbed
// group does not set the figure.
func groupedQuantile(reps [][]float64, q float64) float64 {
	const minGroup = 1000
	var groups [][]float64
	var cur []float64
	for _, r := range reps {
		cur = append(cur, r...)
		if len(cur) >= minGroup {
			groups = append(groups, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		if n := len(groups); n > 0 {
			groups[n-1] = append(groups[n-1], cur...)
		} else {
			groups = append(groups, cur)
		}
	}
	vals := make([]float64, len(groups))
	for i, g := range groups {
		vals[i] = quantile(g, q)
	}
	return median(vals)
}

// quantile returns the q-quantile of v by linear interpolation (v is
// sorted in place).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}
