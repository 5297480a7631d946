package main

// Per-layer replays for the traced run. Each one drives a layer alone
// through its public functions, on the input or output the workload's run
// produced, and times the calls from here. Where a workload leaves a layer
// idle, the replay still measures what the layer would cost on that
// workload's data, so every metric exists on every workload; README.md says
// which figures each workload is meant to move.

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/esl"
	"repro/internal/snapshot"
	"repro/internal/spec"
	"repro/internal/stream"
)

// corePattern is a workload's SEQ pattern as a core definition; each step
// alias is also the name of the stream that feeds it.
type corePattern struct {
	name string
	def  core.Def
}

// layerOut collects the replay figures.
type layerOut map[string]float64

// coreLayers are the replay accounts of the SEQ automaton, which every
// workload's engine runs.
var coreLayers = []string{"core.push", "core.advance"}

// replayIngest offers the arrival-ordered input to a fresh ingest boundary
// configured like the workload's engine and returns the released order.
func replayIngest(tr *tracer, j *job, out layerOut) []*stream.Tuple {
	g := stream.NewIngest(stream.IngestConfig{Slack: j.slack, Policy: stream.LateDeadLetter, Dedup: j.dedup})
	released := make([]*stream.Tuple, 0, len(j.items))
	var buf []stream.Item
	peak := 0
	sp := tr.begin("replay.stream.ingest")
	var ns int64
	for _, it := range j.items {
		t0 := time.Now()
		var err error
		buf, err = g.Offer(it, buf[:0])
		ns += int64(time.Since(t0))
		if err != nil {
			continue
		}
		if p := g.Pending(); p > peak {
			peak = p
		}
		for _, r := range buf {
			if r.Tuple != nil {
				released = append(released, r.Tuple)
			}
		}
	}
	t0 := time.Now()
	buf = g.Flush(buf[:0])
	ns += int64(time.Since(t0))
	tr.end(sp)
	for _, r := range buf {
		if r.Tuple != nil {
			released = append(released, r.Tuple)
		}
	}
	tr.account("stream.ingest", int64(len(j.items)), ns)
	st := g.Stats()
	out["stream.ingest.ns_per_item"] = float64(ns) / float64(len(j.items))
	out["stream.ingest.reorder_peak"] = float64(peak)
	if st.Ingested > 0 {
		out["stream.ingest.dropped_frac"] = float64(st.DroppedLate+st.DroppedDup+st.DeadLettered) / float64(st.Ingested)
	}
	return released
}

// replayCore pushes the released order into one matcher per pattern and
// advances event time as the engine does: after every tuple on the per-item
// paths, once per ingestion call on the batched in-order path (every > 1).
func replayCore(tr *tracer, pats []corePattern, released []*stream.Tuple, every int, out layerOut) error {
	var pushNs, advNs, pushes, advances int64
	parts, state, runsPeak := 0, 0, 0
	sp := tr.begin("replay.core")
	defer tr.end(sp)
	for _, p := range pats {
		m, err := core.NewMatcher(p.def)
		if err != nil {
			return fmt.Errorf("pattern %s: %w", p.name, err)
		}
		aliases := map[string]bool{}
		for _, s := range p.def.Steps {
			aliases[s.Alias] = true
		}
		var seq uint64
		halfParts, halfState := 0, 0
		for i, t := range released {
			seq++
			t.Seq = seq
			if name := t.Schema.Name(); aliases[name] {
				t0 := time.Now()
				_, err := m.Push(t, name)
				pushNs += int64(time.Since(t0))
				pushes++
				if err != nil {
					return fmt.Errorf("pattern %s: push: %w", p.name, err)
				}
			}
			if (i+1)%every == 0 || i == len(released)-1 {
				t0 := time.Now()
				m.Advance(t.TS)
				advNs += int64(time.Since(t0))
				advances++
			}
			if i%256 == 0 {
				runsPeak = max(runsPeak, m.RunCount())
			}
			if i == len(released)/2 {
				halfParts, halfState = m.Partitions(), m.StateSize()
			}
		}
		parts += m.Partitions()
		state += m.StateSize()
		out["core.partitions_at_half"] += float64(halfParts)
		out["core.state_tuples_at_half"] += float64(halfState)
	}
	tr.account("core.push", pushes, pushNs)
	tr.account("core.advance", advances, advNs)
	if pushes > 0 {
		out["core.push.ns_per_tuple"] = float64(pushNs) / float64(pushes)
	}
	if advances > 0 {
		out["core.advance.ns_per_call"] = float64(advNs) / float64(advances)
	}
	if pushNs+advNs > 0 {
		out["core.advance.share"] = float64(advNs) / float64(pushNs+advNs)
	}
	out["core.partitions"] = float64(parts)
	out["core.state_tuples"] = float64(state)
	out["core.runs_peak"] = float64(runsPeak)
	return nil
}

// replaySpec drives the speculation layer: the arrival sequence through a
// FAST and a MIDDLE gate, and the speculative record streams through a
// reconciler per twin. A workload without speculative queries replays its
// own rows as assertions, each confirmed sixteen rows later.
func replaySpec(tr *tracer, j *job, recs []rec, out layerOut) {
	sp := tr.begin("replay.spec")
	defer tr.end(sp)
	var gateNs, gateOps int64
	for _, h := range []time.Duration{0, j.slack / 4} {
		g := spec.NewGate(h)
		var buf []*stream.Tuple
		for _, it := range j.items {
			if it.Tuple == nil {
				continue
			}
			t0 := time.Now()
			buf = g.Offer(it.Tuple, buf[:0])
			gateNs += int64(time.Since(t0))
			gateOps++
		}
		g.Flush(buf[:0])
	}
	tr.account("spec.gate", gateOps, gateNs)
	out["spec.gate.ns_per_item"] = float64(gateNs) / float64(max(gateOps, 1))

	var recNs, recOps int64
	peak := 0
	timed := func(fn func()) {
		t0 := time.Now()
		fn()
		recNs += int64(time.Since(t0))
		recOps++
	}
	var asserted, retracted int
	twins := 0
	for ti, tname := range j.queryNames {
		base, ok := twinOf[tname]
		if !ok || j.slack == 0 {
			continue
		}
		twins++
		bi := -1
		for i, n := range j.queryNames {
			if n == base {
				bi = i
			}
		}
		r := spec.NewReconciler(tname, 0)
		live := 0
		for _, rc := range recs {
			switch int(rc.q) {
			case ti:
				pol, _, hash := esl.RecordTags(rc.row)
				switch pol {
				case spec.Assert:
					asserted++
					timed(func() { r.Assert(rc.row.Names, rc.row.Vals, rc.row.TS, hash) })
					live++
				case spec.Retract:
					retracted++
					var n int
					timed(func() { n = len(r.Retire(rc.row.TS + 1)) })
					live -= n
				}
			case bi:
				var hit bool
				timed(func() { hit, _ = r.ConfirmFinal(rc.row.Names, rc.row.Vals, 0) })
				if hit {
					live--
				}
			}
			peak = max(peak, live)
		}
		timed(func() { r.Drain() })
	}
	if twins == 0 {
		r := spec.NewReconciler("replay", 0)
		const lagRows = 16
		for i, rc := range recs {
			timed(func() { r.Assert(rc.row.Names, rc.row.Vals, rc.row.TS, 0) })
			if i >= lagRows {
				c := recs[i-lagRows]
				timed(func() { r.ConfirmFinal(c.row.Names, c.row.Vals, 0) })
			}
		}
		timed(func() { r.Drain() })
		peak = min(len(recs), lagRows)
	}
	tr.account("spec.reconcile", recOps, recNs)
	out["spec.reconcile.ns_per_op"] = float64(recNs) / float64(max(recOps, 1))
	out["spec.pending_peak"] = float64(peak)
	if asserted > 0 {
		out["spec.retract_ratio"] = float64(retracted) / float64(asserted)
	}
}

// replayDB probes a context table with the run's join keys. The
// late-durable workload probes its own engine's table; the others probe a
// table of their tag ids built here.
func replayDB(tr *tracer, j *job, eng *esl.Engine, out layerOut) error {
	var (
		tbl      *db.Table
		versions int
	)
	if eng != nil {
		if t, ok := eng.Store().Get("tagctx"); ok {
			tbl = t
			if m, ok := eng.Store().Get("movement"); ok {
				versions = len(m.Versions())
			}
		}
	}
	var keys []stream.Value
	for _, it := range j.items {
		if it.Tuple != nil && (tbl == nil || it.Tuple.Schema.Name() == "A") {
			keys = append(keys, it.Tuple.Vals[1])
		}
	}
	if tbl == nil {
		schema := stream.MustSchema("ctx", stream.Field{Name: "tagid"}, stream.Field{Name: "zone"})
		tbl = db.NewTable(schema)
		if err := tbl.CreateIndex("tagid"); err != nil {
			return err
		}
		seen := map[string]bool{}
		for i, k := range keys {
			if seen[k.String()] || i%2 == 1 {
				continue
			}
			seen[k.String()] = true
			if _, err := tbl.Insert([]stream.Value{k, stream.Int(int64(len(seen) % 5))}); err != nil {
				return err
			}
		}
		versions = len(tbl.Versions())
	}
	v := tbl.Head()
	if !v.Indexed(0) {
		return fmt.Errorf("context table has no index on tagid")
	}
	buf := make([]*db.Row, 0, 8)
	// Warm the probe path once so the allocation count sees steady state.
	buf = v.Probe(0, keys[0], buf[:0])
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sp := tr.begin("replay.db")
	t0 := time.Now()
	for _, k := range keys {
		buf = v.Probe(0, k, buf[:0])
	}
	ns := int64(time.Since(t0))
	tr.end(sp)
	runtime.ReadMemStats(&ms1)
	tr.account("db.probe", int64(len(keys)), ns)
	out["db.probe.ns"] = float64(ns) / float64(len(keys))
	out["db.probe.allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(keys))
	out["db.versions"] = float64(versions)
	return nil
}

// replayJournal appends the offered items to a fresh journal (group commit
// per ingestion call, the engine's default fsync), then times Replay with
// DecodeItem over it.
func replayJournal(tr *tracer, j *job, dir string, out layerOut) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	jr, err := snapshot.OpenJournal(dir, snapshot.JournalConfig{})
	if err != nil {
		return err
	}
	sp := tr.begin("replay.snapshot.journal")
	var ns int64
	lsn := uint64(0)
	schemas := map[string]*stream.Schema{}
	for _, c := range j.calls {
		t0 := time.Now()
		for _, it := range c {
			lsn++
			if err := jr.AppendItemAt(lsn, it); err != nil {
				jr.Close()
				return err
			}
		}
		err := jr.Flush()
		ns += int64(time.Since(t0))
		if err != nil {
			jr.Close()
			return err
		}
		for _, it := range c {
			if it.Tuple != nil {
				schemas[it.Tuple.Schema.Name()] = it.Tuple.Schema
			}
		}
	}
	tr.end(sp)
	if err := jr.Close(); err != nil {
		return err
	}
	tr.account("snapshot.journal", int64(lsn), ns)
	size := int64(0)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			size += info.Size()
		}
	}
	out["snapshot.journal.ns_per_item"] = float64(ns) / float64(lsn)
	out["snapshot.journal.bytes_per_item"] = float64(size) / float64(lsn)

	resolve := func(name string) (*stream.Schema, bool) { s, ok := schemas[name]; return s, ok }
	n := 0
	sp = tr.begin("replay.snapshot.decode")
	t0 := time.Now()
	err = snapshot.Replay(dir, 0, func(_ uint64, body []byte) error {
		n++
		_, err := snapshot.DecodeItem(body, resolve)
		return err
	})
	dns := int64(time.Since(t0))
	tr.end(sp)
	if err != nil {
		return err
	}
	tr.account("snapshot.decode", int64(n), dns)
	out["snapshot.replay.decode_ns_per_item"] = float64(dns) / float64(max(n, 1))
	return nil
}

// traceLateSnapshot measures, for the journaled workload, a checkpoint of
// the drained engine and Engine.Restore of the newest on-disk snapshot
// alone into a fresh engine of the same job.
func traceLateSnapshot(tr *tracer, dir string, eng *esl.Engine, fresh func() (*esl.Engine, error)) error {
	var blob bytes.Buffer
	sp := tr.begin("snapshot.checkpoint")
	err := eng.Checkpoint(&blob)
	tr.end(sp)
	if err != nil {
		return err
	}
	tr.account("snapshot.checkpoint.bytes", 1, int64(blob.Len()))
	path, _, ok, err := snapshot.LatestSnapshot(dir)
	if err != nil || !ok {
		return fmt.Errorf("no snapshot in %s (%v)", dir, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	e, err := fresh()
	if err != nil {
		return err
	}
	defer e.CloseJournal()
	sp = tr.begin("snapshot.restore")
	err = e.Restore(bytes.NewReader(raw))
	tr.end(sp)
	return err
}

// replayFanIn re-merges the run's rows split over two origins by their
// first value, offered per origin in chunks with the chunk's last timestamp
// as the watermark.
func replayFanIn(tr *tracer, recs []rec, out layerOut) {
	type ev struct {
		ts  stream.Timestamp
		seq int
	}
	per := make([][]ev, clusterNodes)
	for i, rc := range recs {
		o := 0
		if len(rc.row.Vals) > 0 {
			o = int(rc.row.Vals[0].Hash() % clusterNodes)
		}
		per[o] = append(per[o], ev{rc.row.TS, i})
	}
	for _, p := range per {
		sort.SliceStable(p, func(a, b int) bool { return p[a].ts < p[b].ts })
	}
	delivered := 0
	f := stream.NewFanIn(clusterNodes, 4096, func(a, b ev) bool {
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		return a.seq < b.seq
	}, func(e ev) stream.Timestamp { return e.ts }, func(ev) { delivered++ })
	const chunk = 256
	sp := tr.begin("replay.stream.fanin")
	t0 := time.Now()
	for off := 0; ; off += chunk {
		more := false
		for o, p := range per {
			if off >= len(p) {
				continue
			}
			more = true
			hi := min(off+chunk, len(p))
			f.Offer(o, p[off:hi], p[hi-1].ts)
		}
		if !more {
			break
		}
	}
	f.FlushAll()
	ns := int64(time.Since(t0))
	tr.end(sp)
	tr.account("stream.fanin", int64(len(recs)), ns)
	out["stream.fanin.ns_per_row"] = float64(ns) / float64(max(delivered, 1))
}

// replayCluster feeds the workload's input through the two-node cluster
// once, so the cluster layer is measured on every workload.
func replayCluster(tr *tracer, j *job, out layerOut) error {
	s := &sink{base: time.Now()}
	sys, err := openCluster(s, j.clusterOpts, j.clusterDDL, j.clusterQueries)
	if err != nil {
		return err
	}
	sp := tr.begin("replay.cluster")
	var pushNs int64
	batches := 0
	for off := 0; off < len(j.items); off += dockBatch {
		hi := min(off+dockBatch, len(j.items))
		t0 := time.Now()
		err := sys.push(j.items[off:hi])
		pushNs += int64(time.Since(t0))
		batches++
		if err != nil {
			tr.end(sp)
			sys.close()
			return err
		}
	}
	t0 := time.Now()
	err = sys.drain()
	drain := time.Since(t0)
	tr.end(sp)
	if err != nil {
		sys.close()
		return err
	}
	tr.account("cluster.push", int64(batches), pushNs)
	clusterFigures(sys, j.readings, float64(pushNs)/float64(batches), drain, out)
	return sys.close()
}

// clusterFigures reads the client and wire accounting of a drained cluster.
func clusterFigures(sys *system, readings int, nsPerBatch float64, drain time.Duration, out layerOut) {
	out["cluster.push.ns_per_batch"] = nsPerBatch
	out["cluster.drain_ms"] = float64(drain) / 1e6
	out["cluster.wire.bytes_per_event"] = float64(sys.wire.n.Load()) / float64(readings)
	st := sys.client.Stats()
	var sum, top float64
	for _, n := range st.Nodes {
		sum += float64(n.TuplesSent)
		top = max(top, float64(n.TuplesSent))
	}
	if sum > 0 {
		out["cluster.node_skew"] = top / (sum / float64(len(st.Nodes)))
	}
}
