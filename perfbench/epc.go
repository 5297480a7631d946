package main

// epc-line: the paper's Examples 6 and 7 on the serial engine, one PushTuple
// per reading in timestamp order, with a fresh EPC for every item. See
// README.md for the layers it loads and leaves idle.

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/rfid"
	"repro/internal/stream"
)

const epcDDL = `
	CREATE STREAM C1(readerid, tagid, tagtime);
	CREATE STREAM C2(readerid, tagid, tagtime);
	CREATE STREAM C3(readerid, tagid, tagtime);
	CREATE STREAM C4(readerid, tagid, tagtime);
	CREATE STREAM R1(readerid, tagid, tagtime);
	CREATE STREAM R2(readerid, tagid, tagtime);`

var epcQueries = []querySpec{
	{name: "ex6", sink: true, sql: `
		SELECT C1.tagid, C1.tagtime, C2.tagtime, C3.tagtime, C4.tagtime
		FROM C1, C2, C3, C4
		WHERE SEQ(C1, C2, C3, C4)
		OVER [30 MINUTES PRECEDING C4] MODE CHRONICLE
		AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid AND C1.tagid=C4.tagid`},
	{name: "ex7", sink: true, sql: `
		SELECT COUNT(R1*), R2.tagid, R2.tagtime
		FROM R1, R2
		WHERE SEQ(R1*, R2) MODE CHRONICLE
		AND R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS
		AND R1.tagtime - R1.previous.tagtime <= 1 SECONDS`},
}

// epcItems is the number of Example 6 items at scale 100; the packing line
// gets one case per six items so both scenarios span about the same time.
const epcItems = 2400

func epcLine(seed int64, scale int) (*job, error) {
	n := max(epcItems*scale/100, 12)
	qtr, qtruth := rfid.QualityLine(rfid.QualityConfig{Items: n, DropRate: 0.1, Seed: seed})
	ptr, ptruth := rfid.PackingLine(rfid.PackingConfig{Cases: n / 6, Seed: seed + 1,
		LateCaseEvery: 7, MissedCaseRate: 0.05})
	tuples := append(qtr.Tuples(), ptr.Tuples()...)
	sort.SliceStable(tuples, func(a, b int) bool { return tuples[a].TS < tuples[b].TS })
	j := &job{name: "epc-line", queryNames: []string{"ex6", "ex7"}}
	for _, t := range tuples {
		j.items = append(j.items, stream.Of(t))
	}
	j.splitCalls(1)
	j.lagBound = maxStep(j.hw)

	// Ground truth from the generators: one Example 6 row per item that
	// passed all four checkpoints, one Example 7 row per case whose reading
	// was neither missed nor late, counting the case's products.
	var want []string
	for _, it := range qtruth {
		if !it.Completed {
			continue
		}
		vals := []stream.Value{stream.Str(it.Tag)}
		for _, at := range it.Times {
			vals = append(vals, stream.Time(at))
		}
		want = append(want, rowKey("ex6", vals))
	}
	for _, c := range ptruth {
		if c.Missed || c.LateCase {
			continue
		}
		want = append(want, rowKey("ex7", []stream.Value{
			stream.Int(int64(len(c.Items))), stream.Str(c.CaseTag), stream.Time(c.CaseAt)}))
	}
	j.check = func(r *repOut) (int, int, string) {
		have := make([]string, 0, len(r.recs))
		for _, rc := range r.recs {
			have = append(have, rowKey(j.queryNames[rc.q], rc.row.Vals))
		}
		bad, detail := compareMultisets(want, have)
		return len(want), bad, detail
	}
	j.open = func(s *sink, tr *tracer) (*system, error) {
		return openSerial(s, tr, nil, epcDDL, epcQueries)
	}
	rr, err := newRestoreRecovery(func() (*system, error) { return j.open(&sink{base: time.Now()}, nil) })
	if err != nil {
		return nil, err
	}
	j.recover = rr.measure
	j.patterns = []corePattern{ex6Pattern(), ex7Pattern()}
	j.clusterDDL, j.clusterQueries = epcDDL, epcQueries
	j.engineLayers = coreLayers
	return j, nil
}

// ex6Pattern mirrors the Example 6 query as a core pattern: four steps keyed
// on tagid under a 30-minute window anchored at C4.
func ex6Pattern() corePattern {
	key := func(t *stream.Tuple) stream.Value { return t.Vals[1] }
	var steps []core.Step
	for _, a := range []string{"C1", "C2", "C3", "C4"} {
		steps = append(steps, core.Step{Alias: a, Key: key})
	}
	return corePattern{name: "ex6", def: core.Def{Steps: steps, Mode: core.ModeChronicle,
		Window: &core.WindowAnchor{Span: 30 * time.Minute, Step: 3}}}
}

// ex7Pattern mirrors the Example 7 containment query: a star run of product
// readings with gaps of at most a second, closed by a case reading within
// five seconds of the run's last product.
func ex7Pattern() corePattern {
	return corePattern{name: "ex7", def: core.Def{
		Steps: []core.Step{{Alias: "R1", Star: true, MaxGap: time.Second}, {Alias: "R2"}},
		Mode:  core.ModeChronicle,
		Pred: func(p *core.Match, step int, t *stream.Tuple) bool {
			if step != 1 {
				return true
			}
			last := p.Last(0)
			return last == nil || t.TS-last.TS <= stream.TS(5*time.Second)
		},
		ExpireAfter: 5 * time.Second,
	}}
}
