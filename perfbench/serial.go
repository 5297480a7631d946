package main

// Set-up of the serial engine and the helpers the workloads share: query
// registration, multiset comparison of output rows, and restore-based
// recovery for workloads that keep no journal.

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/esl"
	"repro/internal/spec"
	"repro/internal/stream"
)

// querySpec is one continuous query of a workload. Queries without a sink
// (INSERT INTO a table) have sink=false.
type querySpec struct {
	name  string
	sql   string
	level spec.Level
	sink  bool
}

// register adds every query to reg, tagging sink records with the query's
// index. Each registration is one esl.register span when traced.
func register(reg func(name, sql string, onRow func(esl.Row), lvl spec.Level) error,
	qs []querySpec, s *sink, tr *tracer) error {
	for i, q := range qs {
		var fn func(esl.Row)
		if q.sink {
			fn = s.fn(i)
		}
		var sp span
		if tr != nil {
			sp = tr.begin("esl.register")
		}
		err := reg(q.name, q.sql, fn, q.level)
		if tr != nil {
			tr.end(sp)
		}
		if err != nil {
			return fmt.Errorf("register %s: %w", q.name, err)
		}
	}
	return nil
}

// openSerial builds a serial engine: options, DDL (streams, tables and table
// preload), then the queries. Everything here is set-up time.
func openSerial(s *sink, tr *tracer, opts []esl.Option, ddl string, qs []querySpec) (*system, error) {
	e := esl.New(opts...)
	if _, err := e.Exec(ddl); err != nil {
		return nil, fmt.Errorf("ddl: %w", err)
	}
	err := register(func(name, sql string, fn func(esl.Row), lvl spec.Level) error {
		if fn == nil {
			_, err := e.Exec(sql)
			return err
		}
		var err error
		if lvl == spec.Strict {
			_, err = e.RegisterQuery(name, sql, fn)
		} else {
			_, err = e.RegisterQueryOpts(name, sql, fn, esl.WithConsistency(lvl))
		}
		return err
	}, qs, s, tr)
	if err != nil {
		return nil, err
	}
	return &system{
		push: func(call []stream.Item) error {
			if len(call) == 1 && call[0].Tuple != nil {
				return e.PushTuple(call[0].Tuple.Schema.Name(), call[0].Tuple)
			}
			return e.PushBatch(call)
		},
		drain: e.Drain,
		close: e.CloseJournal,
		stats: e.EngineStats,
		eng:   e,
	}, nil
}

// restoreReps is how many restores one recovery measurement takes.
const restoreReps = 9

// restoreRecovery measures recovery for a workload without a journal: the
// drained engine's checkpoint is restored restoreReps times into a fresh
// engine of the same job, and the median is reported. A restored engine must
// checkpoint to the same bytes. The fresh engine is built once per run, with
// the job; after each measurement it is restored to its empty checkpoint, so
// from the second repetition on it holds the same heap at both readings of
// a state measurement. The first repetition's state reads low by what the
// reset engine retains; the median over repetitions discards it.
type restoreRecovery struct {
	fresh *system
	empty []byte
}

func newRestoreRecovery(open func() (*system, error)) (*restoreRecovery, error) {
	fresh, err := open()
	if err != nil {
		return nil, err
	}
	var empty bytes.Buffer
	if err := fresh.eng.Checkpoint(&empty); err != nil {
		return nil, fmt.Errorf("checkpoint fresh engine: %w", err)
	}
	return &restoreRecovery{fresh: fresh, empty: empty.Bytes()}, nil
}

func (rr *restoreRecovery) measure(r *repOut, tr *tracer) (time.Duration, int, error) {
	var blob bytes.Buffer
	var sp span
	if tr != nil {
		sp = tr.begin("snapshot.checkpoint")
	}
	err := r.sys.eng.Checkpoint(&blob)
	if tr != nil {
		tr.end(sp)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("checkpoint: %w", err)
	}
	var ds []float64
	for i := 0; i < restoreReps; i++ {
		if tr != nil {
			sp = tr.begin("snapshot.restore")
		}
		t0 := time.Now()
		err := rr.fresh.eng.Restore(bytes.NewReader(blob.Bytes()))
		d := time.Since(t0)
		if tr != nil {
			tr.end(sp)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("restore: %w", err)
		}
		ds = append(ds, float64(d))
	}
	var again bytes.Buffer
	if err := rr.fresh.eng.Checkpoint(&again); err != nil {
		return 0, 0, fmt.Errorf("checkpoint restored engine: %w", err)
	}
	bad := 0
	if !bytes.Equal(blob.Bytes(), again.Bytes()) {
		bad = 1
	}
	if err := rr.fresh.eng.Restore(bytes.NewReader(rr.empty)); err != nil {
		return 0, 0, fmt.Errorf("reset fresh engine: %w", err)
	}
	if tr != nil {
		tr.account("snapshot.checkpoint.bytes", 1, int64(blob.Len()))
	}
	return time.Duration(median(ds)), bad, nil
}

// rowKey renders one output row for multiset comparison.
func rowKey(q string, vals []stream.Value) string {
	var b strings.Builder
	b.WriteString(q)
	for _, v := range vals {
		b.WriteByte('|')
		b.WriteString(v.String())
	}
	return b.String()
}

// compareMultisets counts rows of want missing from have plus rows of have
// not in want.
func compareMultisets(want, have []string) (bad int, detail string) {
	counts := make(map[string]int, len(want))
	for _, k := range want {
		counts[k]++
	}
	var extra, missing []string
	for _, k := range have {
		if counts[k] > 0 {
			counts[k]--
			continue
		}
		extra = append(extra, k)
	}
	for k, n := range counts {
		for ; n > 0; n-- {
			missing = append(missing, k)
		}
	}
	bad = len(extra) + len(missing)
	if bad > 0 {
		sort.Strings(extra)
		sort.Strings(missing)
		detail = fmt.Sprintf("%d missing (first %v), %d unexpected (first %v)",
			len(missing), head(missing), len(extra), head(extra))
	}
	return bad, detail
}

func head(v []string) []string {
	if len(v) > 3 {
		return v[:3]
	}
	return v
}
