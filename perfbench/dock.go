package main

// dock-fanout: 1024 reader-guarded two-step SEQ queries, half of them
// opening with the same DOCK step so the planner merges them. The feed is in
// timestamp order, in PushBatch calls of 256, with no slack and no journal.

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
)

const (
	dockQueries = 1024
	dockShared  = dockQueries / 2
	dockTags    = 16
	dockBatch   = 256
	// dockPairs is the number of (C1, C2) reading pairs at scale 100.
	dockPairs = 60000
)

const dockDDL = `
	CREATE STREAM C1(readerid, tagid, tagtime);
	CREATE STREAM C2(readerid, tagid, tagtime);`

func dockC1Reader(q int) string {
	if q < dockShared {
		return "DOCK"
	}
	return fmt.Sprintf("R%d", q)
}

func dockQuerySpecs() []querySpec {
	qs := make([]querySpec, dockQueries)
	for q := range qs {
		qs[q] = querySpec{name: fmt.Sprintf("q%04d", q), sink: true, sql: fmt.Sprintf(`
			SELECT C2.tagid, C2.tagtime FROM C1, C2
			WHERE SEQ(C1, C2) OVER [1 SECONDS PRECEDING C2]
			AND C1.readerid = '%s' AND C2.readerid = 'R%d'
			AND C1.tagid = C2.tagid`, dockC1Reader(q), q)}
	}
	return qs
}

func dockFanout(seed int64, scale int) (*job, error) {
	pairs := max(dockPairs*scale/100, 64)
	rng := rand.New(rand.NewSource(seed))
	c1 := stream.MustSchema("C1", stream.Field{Name: "readerid"}, stream.Field{Name: "tagid"}, stream.Field{Name: "tagtime"})
	c2 := stream.MustSchema("C2", stream.Field{Name: "readerid"}, stream.Field{Name: "tagid"}, stream.Field{Name: "tagtime"})
	qs := dockQuerySpecs()
	j := &job{name: "dock-fanout"}
	for _, q := range qs {
		j.queryNames = append(j.queryNames, q.name)
	}

	// Direct count over the generated feed: a C2 reading of query q pairs
	// with every earlier C1 reading at q's first-step reader with the same
	// tag inside the one-second window.
	type rk struct{ reader, tag string }
	c1At := map[rk][]stream.Timestamp{}
	var want []string
	tags := make([]string, dockTags)
	for i := range tags {
		tags[i] = fmt.Sprintf("t%02d", i)
	}
	for p := 0; p < pairs; p++ {
		q := rng.Intn(dockQueries)
		tag := tags[rng.Intn(dockTags)]
		at1 := stream.TS(time.Duration(2*p+1) * 10 * time.Millisecond)
		at2 := at1.Add(10 * time.Millisecond)
		r1 := dockC1Reader(q)
		t1 := stream.MustTuple(c1, at1, stream.Str(r1), stream.Str(tag), stream.Time(at1))
		t2 := stream.MustTuple(c2, at2, stream.Str(fmt.Sprintf("R%d", q)), stream.Str(tag), stream.Time(at2))
		j.items = append(j.items, stream.Of(t1), stream.Of(t2))
		k := rk{r1, tag}
		c1At[k] = append(c1At[k], at1)
		prior := c1At[k]
		lo := sort.Search(len(prior), func(i int) bool { return prior[i] >= at2.Add(-time.Second) })
		key := rowKey(qs[q].name, []stream.Value{stream.Str(tag), stream.Time(at2)})
		for n := len(prior) - lo; n > 0; n-- {
			want = append(want, key)
		}
	}
	j.splitCalls(dockBatch)
	j.lagBound = maxStep(j.hw)
	j.check = func(r *repOut) (int, int, string) {
		have := make([]string, 0, len(r.recs))
		for _, rc := range r.recs {
			have = append(have, rowKey(j.queryNames[rc.q], rc.row.Vals))
		}
		bad, detail := compareMultisets(want, have)
		return len(want), bad, detail
	}
	j.open = func(s *sink, tr *tracer) (*system, error) { return openSerial(s, tr, nil, dockDDL, qs) }
	rr, err := newRestoreRecovery(func() (*system, error) { return j.open(&sink{base: time.Now()}, nil) })
	if err != nil {
		return nil, err
	}
	j.recover = rr.measure
	j.clusterDDL, j.clusterQueries = dockDDL, qs
	j.engineLayers = coreLayers
	j.patterns = []corePattern{dockPattern()}
	return j, nil
}

// dockPattern mirrors the merged DOCK group: C1 at the DOCK reader, then C2
// at any shared query's reader with the same tag within one second.
func dockPattern() corePattern {
	key := func(t *stream.Tuple) stream.Value { return t.Vals[1] }
	shared := map[string]bool{}
	for q := 0; q < dockShared; q++ {
		shared[fmt.Sprintf("R%d", q)] = true
	}
	reader := func(t *stream.Tuple) string { s, _ := t.Vals[0].AsString(); return s }
	return corePattern{name: "dock", def: core.Def{
		Steps: []core.Step{
			{Alias: "C1", Key: key, Filter: func(t *stream.Tuple) bool { return reader(t) == "DOCK" }},
			{Alias: "C2", Key: key, Filter: func(t *stream.Tuple) bool { return shared[reader(t)] }},
		},
		Window: &core.WindowAnchor{Span: time.Second, Step: 1},
	}}
}
