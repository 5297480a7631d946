package main

// The traced run's span recorder. Spans are taken in the benchmark's own
// files around calls into each layer's public functions — nothing inside the
// engine is instrumented. They are held in memory and written out when the
// run ends. Layer replays that time many tiny calls (one Matcher.Push, one
// Ingest.Offer) accumulate their per-call times into counters instead of
// one span per call, and record one span around the whole replay.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

type span int32

type spanRec struct {
	name       uint16
	parent     int32
	start, end int64 // ns since the tracer's base
}

// layerAcc accumulates timed calls of one replayed layer.
type layerAcc struct {
	calls int64
	ns    int64
}

type tracer struct {
	mu    sync.Mutex
	base  time.Time
	names []string
	index map[string]uint16
	spans []spanRec
	stack []int32
	acc   map[string]*layerAcc
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), index: map[string]uint16{}, acc: map[string]*layerAcc{}}
}

func (t *tracer) nameID(name string) uint16 {
	id, ok := t.index[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.index[name] = id
	}
	return id
}

// begin opens a span nested in the innermost open span.
func (t *tracer) begin(name string) span {
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, spanRec{name: t.nameID(name), parent: parent, start: now, end: -1})
	t.stack = append(t.stack, id)
	return span(id)
}

// end closes a span opened by begin.
func (t *tracer) end(s span) {
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[s].end = now
	if n := len(t.stack); n > 0 && t.stack[n-1] == int32(s) {
		t.stack = t.stack[:n-1]
	}
}

// account adds n timed calls totalling ns to a replayed layer.
func (t *tracer) account(name string, n int64, ns int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.acc[name]
	if a == nil {
		a = &layerAcc{}
		t.acc[name] = a
	}
	a.calls += n
	a.ns += ns
}

func (t *tracer) accNs(name string) (calls, ns int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.acc[name]; a != nil {
		return a.calls, a.ns
	}
	return 0, 0
}

// selfRow is one line of the per-layer self-time table.
type selfRow struct {
	name       string
	count      int64
	total, own int64
}

// selfTimes returns per-name totals and self times: a span's duration minus
// the part of it its child spans cover. Accumulated replay layers are whole
// self time.
func (t *tracer) selfTimes() map[string]*selfRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			p := t.spans[s.parent]
			lo, hi := max(s.start, p.start), s.end
			if p.end >= 0 {
				hi = min(hi, p.end)
			}
			if hi > lo {
				child[s.parent] += hi - lo
			}
		}
	}
	out := map[string]*selfRow{}
	row := func(name string) *selfRow {
		r := out[name]
		if r == nil {
			r = &selfRow{name: name}
			out[name] = r
		}
		return r
	}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		r := row(t.names[s.name])
		d := s.end - s.start
		r.count++
		r.total += d
		r.own += max(d-child[i], 0)
	}
	for name, a := range t.acc {
		r := row(name)
		r.count += a.calls
		r.total += a.ns
		r.own += a.ns
	}
	return out
}

// writeTable prints the self-time table, largest self time first.
func (t *tracer) writeTable(w io.Writer) {
	rows := t.selfTimes()
	list := make([]*selfRow, 0, len(rows))
	var all int64
	for _, r := range rows {
		list = append(list, r)
		all += r.own
	}
	sort.Slice(list, func(i, j int) bool { return list[i].own > list[j].own })
	fmt.Fprintf(w, "%-32s %10s %12s %12s %7s\n", "layer", "count", "total_ms", "self_ms", "self%")
	for _, r := range list {
		share := 0.0
		if all > 0 {
			share = 100 * float64(r.own) / float64(all)
		}
		fmt.Fprintf(w, "%-32s %10d %12.3f %12.3f %6.1f%%\n", r.name, r.count,
			float64(r.total)/1e6, float64(r.own)/1e6, share)
	}
}

// writeFiles writes the spans (id, parent, name, start, end) and the
// self-time table into dir, one pair of files per workload.
func (t *tracer) writeFiles(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans-"+workload+".csv"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns")
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", i, s.parent, t.names[s.name], s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	tf, err := os.Create(filepath.Join(dir, "selftime-"+workload+".txt"))
	if err != nil {
		return err
	}
	t.writeTable(tf)
	return tf.Close()
}
