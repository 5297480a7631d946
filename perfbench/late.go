package main

// late-durable: the serial engine behind the fault-tolerant ingest boundary
// (500 ms slack, DEAD_LETTER lateness, exact dedup) with the journal and
// periodic checkpoints at the engine's default fsync. The feed arrives out
// of order in bursts clustered by reader, with about 2% duplicates. The
// query mix is the recovery mix (filter, DISTINCT, time and rows aggregates,
// SEQ in all four modes, star, EXCEPTION_SEQ), FAST and MIDDLE twins of the
// keyed SEQ and of an ungrouped time-window aggregate (which late readings
// change, so FAST retracts), a continuous INSERT INTO a movement-history
// table and a stream-table context join, so writes and reads hit the same
// store.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/esl"
	"repro/internal/snapshot"
	"repro/internal/spec"
	"repro/internal/stream"
)

const (
	lateSlack = 500 * time.Millisecond
	lateBatch = 256
	lateTags  = 64
	// lateCkpt is the checkpoint interval in journaled items at scale 100;
	// a repetition feeds lateCkptRuns and a half intervals, so Recover
	// always replays about half an interval of journal.
	lateCkpt     = 4096
	lateCkptRuns = 11
	lateStep     = 10 * time.Millisecond
)

const lateDDL = `
	CREATE STREAM A(readerid, tagid, n);
	CREATE STREAM B(readerid, tagid, n);
	CREATE TABLE tagctx(tagid, zone);
	CREATE INDEX ON tagctx(tagid);
	CREATE TABLE movement(readerid, tagid, n);`

// lateQueries: the recovery mix, the window aggregate, the twins, the
// history insert and the context join. twinOf maps each speculative twin to
// its strict base.
var lateQueries = []querySpec{
	{name: "filter", sink: true, sql: `SELECT tagid, n FROM A WHERE n % 3 = 0`},
	{name: "distinct", sink: true, sql: `SELECT DISTINCT tagid FROM A`},
	{name: "aggtime", sink: true, sql: `SELECT tagid, COUNT(*), SUM(n), AVG(n) FROM B
		OVER (RANGE 200 MILLISECONDS PRECEDING CURRENT) GROUP BY tagid`},
	{name: "aggrows", sink: true, sql: `SELECT MIN(n), MAX(n) FROM A OVER (ROWS 5 PRECEDING)`},
	{name: "seq", sink: true, sql: `SELECT A.tagid, B.n FROM A, B
		WHERE SEQ(A, B) OVER [15 MILLISECONDS PRECEDING B] AND A.tagid = B.tagid`},
	{name: "recent", sink: true, sql: `SELECT A.tagid, B.n FROM A, B
		WHERE SEQ(A, B) OVER [300 MILLISECONDS PRECEDING B] MODE RECENT
		AND A.tagid = B.tagid`},
	{name: "chronicle", sink: true, sql: `SELECT A.tagid, B.n FROM A, B
		WHERE SEQ(A, B) OVER [15 MILLISECONDS PRECEDING B] MODE CHRONICLE
		AND B.n = A.n + 1`},
	{name: "consecutive", sink: true, sql: `SELECT A.tagid, B.n FROM A, B
		WHERE SEQ(A, B) OVER [300 MILLISECONDS PRECEDING B] MODE CONSECUTIVE
		AND A.tagid = B.tagid`},
	{name: "star", sink: true, sql: `SELECT COUNT(A*), B.tagid FROM A, B
		WHERE SEQ(A*, B) MODE CHRONICLE AND B.n = A.n + 1`},
	{name: "exc", sink: true, sql: `SELECT A.tagid FROM A, B
		WHERE EXCEPTION_SEQ(A, B) OVER [25 MILLISECONDS FOLLOWING A]
		AND B.n = A.n + 1`},
	{name: "seq_fast", sink: true, level: spec.Fast, sql: `SELECT A.tagid, B.n FROM A, B
		WHERE SEQ(A, B) OVER [15 MILLISECONDS PRECEDING B] AND A.tagid = B.tagid`},
	{name: "seq_middle", sink: true, level: spec.Middle, sql: `SELECT A.tagid, B.n FROM A, B
		WHERE SEQ(A, B) OVER [15 MILLISECONDS PRECEDING B] AND A.tagid = B.tagid`},
	{name: "win", sink: true, sql: `SELECT COUNT(*), SUM(n) FROM B
		OVER (RANGE 100 MILLISECONDS PRECEDING CURRENT)`},
	{name: "win_fast", sink: true, level: spec.Fast, sql: `SELECT COUNT(*), SUM(n) FROM B
		OVER (RANGE 100 MILLISECONDS PRECEDING CURRENT)`},
	{name: "win_middle", sink: true, level: spec.Middle, sql: `SELECT COUNT(*), SUM(n) FROM B
		OVER (RANGE 100 MILLISECONDS PRECEDING CURRENT)`},
	{name: "history", sql: `INSERT INTO movement SELECT readerid, tagid, n FROM B`},
	{name: "context", sink: true, sql: `SELECT A.tagid, c.zone, A.n FROM A, tagctx AS c
		WHERE A.tagid = c.tagid`},
}

var twinOf = map[string]string{
	"seq_fast": "seq", "seq_middle": "seq",
	"win_fast": "win", "win_middle": "win",
}

// lateTable is the context-table preload: one zone per tag.
func lateTable() string {
	var b strings.Builder
	b.WriteString("INSERT INTO tagctx VALUES ")
	for i := 0; i < lateTags; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "('tag%02d', 'zone%d')", i, i%5)
	}
	return b.String()
}

func lateOptions(dir string, ckpt int) []esl.Option {
	return []esl.Option{
		esl.WithSlack(lateSlack),
		esl.WithLateness(stream.LateDeadLetter),
		esl.WithExactDedup(),
		esl.WithJournal(dir),
		esl.WithCheckpointEvery(ckpt),
	}
}

// lateFeed generates the arrival-ordered feed. Readings alternate A and B
// at a 10 ms cadence; every 11th B is withheld so EXCEPTION_SEQ fires.
// Bursts of 100-300 readings alternate with calm stretches; during a burst
// the readings of half the readers arrive 70-100% of the slack late, which
// delays 20-30% of the feed clustered by reader. Another 3% arrive up to
// the slack late at random, and 2% are followed by an exact duplicate.
func lateFeed(seed int64, total int) (items []stream.Item, dups, delayed int) {
	rng := rand.New(rand.NewSource(seed))
	sa := stream.MustSchema("A", stream.Field{Name: "readerid"}, stream.Field{Name: "tagid"}, stream.Field{Name: "n"})
	sb := stream.MustSchema("B", stream.Field{Name: "readerid"}, stream.Field{Name: "tagid"}, stream.Field{Name: "n"})
	type arrival struct {
		key  stream.Timestamp
		ord  int
		it   stream.Item
		late bool
	}
	var arr []arrival
	burst, calm, parity := 0, 50+rng.Intn(100), 0
	for i := 0; len(arr) < total+total/8; i++ {
		s := sa
		if i%2 == 1 {
			s = sb
			if i%11 == 0 {
				continue
			}
		}
		ts := stream.TS(time.Duration(i+1) * lateStep)
		tag := (i / 2) % lateTags
		reader := tag / 8
		t := stream.MustTuple(s, ts, stream.Str(fmt.Sprintf("rd%d", reader)),
			stream.Str(fmt.Sprintf("tag%02d", tag)), stream.Int(int64(i)))
		key := ts
		if burst == 0 && calm == 0 {
			burst, parity = 100+rng.Intn(200), rng.Intn(2)
		}
		late := false
		if burst > 0 {
			burst--
			if burst == 0 {
				calm = 100 + rng.Intn(200)
			}
			if reader%2 == parity {
				lo := int64(lateSlack) * 7 / 10
				key = ts.Add(time.Duration(lo + rng.Int63n(int64(lateSlack)-lo)))
				late = true
			}
		} else {
			calm--
		}
		if !late && rng.Float64() < 0.03 {
			key = ts.Add(time.Duration(rng.Int63n(int64(lateSlack))))
			late = true
		}
		arr = append(arr, arrival{key, len(arr), stream.Of(t), late})
		if rng.Float64() < 0.02 {
			d := *t
			arr = append(arr, arrival{key, len(arr), stream.Of(&d), false})
		}
	}
	sort.SliceStable(arr, func(a, b int) bool { return arr[a].key < arr[b].key })
	items = make([]stream.Item, total)
	seen := map[string]bool{}
	for i := range items {
		items[i] = arr[i].it
		if arr[i].late {
			delayed++
		}
		k := rowKey(items[i].Tuple.Schema.Name(), append(items[i].Tuple.Vals, stream.Time(items[i].TS)))
		if seen[k] {
			dups++
		}
		seen[k] = true
	}
	return items, dups, delayed
}

func lateDurable(seed int64, scale int) (*job, error) {
	ckpt := max(lateCkpt*scale/100/lateBatch, 1) * lateBatch
	total := lateCkptRuns*ckpt + ckpt/2
	items, dups, delayed := lateFeed(seed, total)
	j := &job{name: "late-durable", items: items, noLag: map[int]bool{}}
	for i, q := range lateQueries {
		j.queryNames = append(j.queryNames, q.name)
		if q.name == "exc" {
			j.noLag[i] = true
		}
	}
	j.splitCalls(lateBatch)
	// Behind the ingest boundary the engine releases and advances per item.
	j.advanceEvery = 1
	j.lagBound = stream.TS(lateSlack) + maxStep(j.hw)
	j.dedup, j.slack = true, lateSlack
	fmt.Fprintf(os.Stderr, "perfbench: late-durable feed: %d items, %d delayed (%.1f%%), %d duplicates\n",
		len(items), delayed, 100*float64(delayed)/float64(len(items)), dups)

	// Repetitions run one after another: recover works on the journal of the
	// repetition set up last.
	reps, curDir := 0, ""
	open := func(s *sink, tr *tracer, dir string) (*system, error) {
		return openSerial(s, tr, lateOptions(dir, ckpt), lateDDL+"\n"+lateTable()+";", lateQueries)
	}
	j.open = func(s *sink, tr *tracer) (*system, error) {
		reps++
		curDir = filepath.Join(journalRoot(), fmt.Sprintf("rep%d", reps))
		if err := os.RemoveAll(curDir); err != nil {
			return nil, err
		}
		return open(s, tr, curDir)
	}
	j.check = func(r *repOut) (int, int, string) {
		expected, bad := 1, 0
		var details []string
		st := r.stats
		if st.Ingested != st.Emitted+st.DroppedLate+st.DroppedDup+st.DeadLettered+uint64(st.PendingReorder) {
			bad++
			details = append(details, fmt.Sprintf("boundary identity broken: %+v", st))
		}
		// Delays stay inside the slack, so nothing is late, and dedup must
		// drop exactly the generated duplicates.
		expected++
		if st.DroppedLate+st.DeadLettered != 0 || st.DroppedDup != uint64(dups) {
			bad++
			details = append(details, fmt.Sprintf("boundary dropped late=%d dead=%d dup=%d, want 0/0/%d",
				st.DroppedLate, st.DeadLettered, st.DroppedDup, dups))
		}
		byQ := map[string][]rec{}
		for _, rc := range r.recs {
			byQ[j.queryNames[rc.q]] = append(byQ[j.queryNames[rc.q]], rc)
		}
		for twin, base := range twinOf {
			want := make([]string, 0, len(byQ[base]))
			for _, rc := range byQ[base] {
				want = append(want, rowKey(base, rc.row.Vals))
			}
			have, err := fold(byQ[twin], base)
			expected += len(want)
			if err != nil {
				bad += max(len(want), 1)
				details = append(details, twin+": "+err.Error())
				continue
			}
			if n, d := compareMultisets(want, have); n > 0 {
				bad += n
				details = append(details, twin+" folded vs "+base+": "+d)
			}
		}
		return expected, bad, strings.Join(details, "; ")
	}
	j.recover = func(r *repOut, tr *tracer) (time.Duration, int, error) {
		dir := curDir
		defer os.RemoveAll(dir)
		if err := r.sys.close(); err != nil {
			return 0, 0, err
		}
		_, lsn, ok, err := snapshot.LatestSnapshot(dir)
		if err != nil || !ok {
			return 0, 0, fmt.Errorf("no checkpoint in %s (%v)", dir, err)
		}
		// The checkpoint fired at the end of the call whose items brought the
		// journal to lsn; rows delivered after that call must be re-emitted.
		cut, n := -1, uint64(0)
		for ci, c := range j.calls {
			n += uint64(len(c))
			if n == lsn {
				cut = ci
				break
			}
		}
		if cut < 0 {
			return 0, 0, fmt.Errorf("checkpoint lsn %d is not a call boundary", lsn)
		}
		cutAt := r.callStart[cut] + r.callDur[cut]
		var want []string
		for _, rc := range r.recs {
			if rc.at > cutAt {
				want = append(want, recKey(j.queryNames[rc.q], rc.row))
			}
		}
		rs := &sink{base: time.Now()}
		fresh, err := open(rs, nil, dir)
		if err != nil {
			return 0, 0, err
		}
		var sp span
		if tr != nil {
			sp = tr.begin("esl.recover")
		}
		t0 := time.Now()
		err = fresh.eng.Recover(dir)
		d := time.Since(t0)
		if tr != nil {
			tr.end(sp)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("recover: %w", err)
		}
		if err := fresh.drain(); err != nil {
			return 0, 0, err
		}
		if err := fresh.close(); err != nil {
			return 0, 0, err
		}
		if tr != nil {
			if err := traceLateSnapshot(tr, dir, r.sys.eng, func() (*esl.Engine, error) {
				sys, err := open(&sink{base: time.Now()}, nil, filepath.Join(dir, "restore"))
				if err != nil {
					return nil, err
				}
				return sys.eng, nil
			}); err != nil {
				return 0, 0, err
			}
		}
		have := make([]string, 0, len(rs.recs))
		for _, rc := range rs.recs {
			have = append(have, recKey(j.queryNames[rc.q], rc.row))
		}
		bad, detail := compareMultisets(want, have)
		if bad > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: late-durable: recovered output differs: %s\n", detail)
		}
		return d, bad, nil
	}
	j.patterns = []corePattern{lateSeqPattern()}
	// Behind the slack boundary with dedup, the speculative twins, the
	// context join and the journal, the engine runs every replayed layer.
	j.engineLayers = append([]string{"stream.ingest", "spec.gate", "spec.reconcile", "db.probe",
		"snapshot.journal"}, coreLayers...)
	j.clusterDDL = `CREATE STREAM A(readerid, tagid, n); CREATE STREAM B(readerid, tagid, n);`
	j.clusterQueries = lateQueries[:10]
	j.clusterOpts = []esl.Option{esl.WithSlack(lateSlack), esl.WithLateness(stream.LateDeadLetter), esl.WithExactDedup()}
	return j, nil
}

// recKey renders a record with its polarity, for comparing record streams.
func recKey(q string, r esl.Row) string {
	pol, _, _ := esl.RecordTags(r)
	return rowKey(q+"|"+pol.String(), r.Vals)
}

// fold compensates a speculative record stream: a retraction cancels the
// open assertion with the same MatchID; surviving assertions and finals are
// the result multiset, keyed as base rows. A retraction naming no open
// assertion is an error.
func fold(recs []rec, base string) ([]string, error) {
	open := map[uint64]int{}
	var out []string
	for i, rc := range recs {
		pol, seq, _ := esl.RecordTags(rc.row)
		switch pol {
		case spec.Assert:
			if _, dup := open[seq]; dup {
				return nil, fmt.Errorf("record %d: duplicate open assertion #%d", i, seq)
			}
			open[seq] = len(out)
			out = append(out, rowKey(base, rc.row.Vals))
		case spec.Retract:
			at, ok := open[seq]
			if !ok {
				return nil, fmt.Errorf("record %d: retraction of no open assertion #%d", i, seq)
			}
			delete(open, seq)
			out[at] = ""
		default:
			out = append(out, rowKey(base, rc.row.Vals))
		}
	}
	live := out[:0]
	for _, k := range out {
		if k != "" {
			live = append(live, k)
		}
	}
	return live, nil
}

// lateSeqPattern mirrors the keyed "seq" query: A then B with the same tag
// within 15 ms.
func lateSeqPattern() corePattern {
	key := func(t *stream.Tuple) stream.Value { return t.Vals[1] }
	return corePattern{name: "seq", def: core.Def{
		Steps:  []core.Step{{Alias: "A", Key: key}, {Alias: "B", Key: key}},
		Window: &core.WindowAnchor{Span: 15 * time.Millisecond, Step: 1},
	}}
}
