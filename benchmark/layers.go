package main

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"time"

	"staircase/internal/axis"
	"staircase/internal/catalog"
	"staircase/internal/core"
	"staircase/internal/doc"
	"staircase/internal/engine"
	"staircase/internal/plan"
	"staircase/internal/vindex"
	"staircase/internal/xpath"
)

// layers runs the layer replays of a traced run: after the traced
// pass, the benchmark calls each layer's public functions directly —
// on the workload's corpus, for a sample of the script's distinct
// queries, on the step contexts those queries produce — inside spans,
// and derives the per-layer metrics from the spans and from counts
// taken at the same boundaries. The replayed spans of one query share
// its "replay:query" root, so a layer's self time is its span minus the
// spans of the layers below it under the same root.
type layers struct {
	tr   *tracer
	m    map[string]float64
	sink int // keeps the probes' results live
}

// replayReps is how often each replayed call runs; its time is the
// fastest of the repetitions, the one the host disturbed least.
const replayReps = 5

// rep runs f replayReps times in spans named name and returns the
// fastest duration in µs.
func (l *layers) rep(name string, parent int32, f func()) float64 {
	us := make([]float64, replayReps)
	for i := range us {
		us[i] = micros(l.tr.timed(name, parent, f))
	}
	return slices.Min(us)
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// storage replays the storage path on the corpus: shred, both index
// builds, binary write and read, and the index probes. It returns the
// shredded document for the query replays.
func (l *layers) storage(c *corpus) (*doc.Document, error) {
	root := l.tr.beginOp("replay:storage", -1)
	defer l.tr.end(root)
	var d *doc.Document
	var err error
	shred := l.tr.timed("doc.Shred", root, func() { d, err = doc.Shred(bytes.NewReader(c.xml)) })
	if err != nil {
		return nil, err
	}
	n := float64(d.Size())
	l.m["doc.shred_s"] = shred.Seconds()
	l.m["doc.shred_mb_s"] = float64(len(c.xml)) / 1e6 / shred.Seconds()
	l.m["doc.column_bytes_per_node"] = float64(d.EncodedBytes()) / n
	l.m["index.build_s"] = l.tr.timed("index.Build", root, func() { d.TagIndex() }).Seconds()
	l.m["index.bytes_per_node"] = float64(d.IndexBytes()) / n
	l.m["vindex.build_s"] = l.tr.timed("vindex.Build", root, func() { d.ValueIndex() }).Seconds()
	l.m["vindex.bytes_per_node"] = float64(d.ValueIndexBytes()) / n

	var bin bytes.Buffer
	l.m["doc.write_binary_s"] = l.tr.timed("doc.WriteBinary", root, func() { err = d.WriteBinary(&bin) }).Seconds()
	if err != nil {
		return nil, err
	}
	l.m["doc.read_binary_s"] = l.tr.timed("doc.ReadBinary", root, func() { _, err = doc.ReadBinary(bytes.NewReader(bin.Bytes())) }).Seconds()
	if err != nil {
		return nil, err
	}

	// Probes: every tag's fragment by name, a selective numeric range
	// (the serve_adhoc light predicates) and a substring scan.
	names, ix := d.Names(), d.TagIndex()
	const lookupRounds = 200
	lookups := l.tr.timed("index.Tag", root, func() {
		for r := 0; r < lookupRounds; r++ {
			for id := 0; id < names.Len(); id++ {
				if nid, ok := names.Lookup(names.Name(int32(id))); ok {
					l.sink += len(ix.Tag(nid))
				}
			}
		}
	})
	l.m["index.tag_lookup_ns"] = float64(lookups.Nanoseconds()) / float64(lookupRounds*names.Len())
	vx := d.ValueIndex()
	l.m["vindex.range_probe_us"] = l.rep("vindex.LookupNumeric", root, func() { l.sink += len(vx.LookupNumeric(vindex.OpGt, 470)) })
	l.m["vindex.contains_probe_us"] = l.rep("vindex.ContainsSubstr", root, func() { l.sink += len(vx.ContainsSubstr("ar")) })
	l.m["host.colscan_ns_per_node"] = colscan(d.PostSlice())
	return d, nil
}

// colscan is the machine-drift calibration: a plain sum over one
// []int32 column, in ns per element.
func colscan(col []int32) float64 {
	best := time.Duration(1 << 62)
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		colscanSink += sumCol(col)
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(len(col))
}

var colscanSink int64 // keeps colscan's sums live

// catalog replays the catalog path on the SCJ2 file: the first open
// (which loads it) and the open of a resident document.
func (l *layers) catalog(c *corpus) (*doc.Document, error) {
	root := l.tr.beginOp("replay:catalog", -1)
	defer l.tr.end(root)
	cat := catalog.New(0)
	if err := cat.Register(docName, c.scj2, catalog.FormatAuto); err != nil {
		return nil, err
	}
	var h *catalog.Handle
	var err error
	l.m["catalog.first_open_s"] = l.tr.timed("catalog.Open:first", root, func() { h, err = cat.Open(docName) }).Seconds()
	if err != nil {
		return nil, err
	}
	d := h.Document()
	h.Close()
	const opens = 10000
	hits := l.tr.timed("catalog.Open:hit", root, func() {
		for i := 0; i < opens; i++ {
			if h, err = cat.Open(docName); err == nil {
				h.Close()
			}
		}
	})
	l.m["catalog.open_hit_ns"] = float64(hits.Nanoseconds()) / opens
	return d, err
}

// replayMode selects what the query replays measure for a workload.
type replayMode struct {
	// frontend replays parse, logical build + rewrite, compile and the
	// engine's from-text façade: the layers a prepared-plan workload
	// never enters.
	frontend bool
	// cursor replays Plan.Cursor and the core cursor kernels instead
	// of Plan.Run and the batch kernels.
	cursor bool
}

// queryCost is what the replays measured for one distinct query, in µs.
type queryCost struct {
	parse, build, compile, run float64
}

// queries replays the query path for the sampled distinct queries of
// the script on d and records the xpath.*, plan.*, core.* and engine.*
// metrics. It returns each sampled query's front-end and run cost for
// the server replays' self time.
func (l *layers) queries(d *doc.Document, s *script, sample []int32, mode replayMode) (map[int32]queryCost, error) {
	eng := engine.New(d)
	env := eng.Env()
	var parse, build, compile, run, adhoc, facadeSelf, firstBatch, coreFirst []float64
	var reorders, replans int64
	var runUS, coreUS, drainNS, drained float64
	kernel := map[string]*[2]float64{} // layer metric -> {ns, nodes touched}
	costs := make(map[int32]queryCost, len(sample))
	uses := s.uses() // plan.run_self_frac weighs each query as the cycle does

	for _, qi := range sample {
		q := &s.queries[qi]
		// A collected heap keeps the collector out of this query's
		// replays, so that its spans compare with each other.
		runtime.GC()
		root := l.tr.beginOp("replay:query", qi)
		var ast xpath.Query
		var lg *plan.Logical
		var pl *plan.Plan
		var err error
		var cost queryCost
		cost.parse = l.rep("xpath.ParseQuery", root, func() { ast, err = xpath.ParseQuery(q.text) })
		if err != nil {
			return nil, err
		}
		cost.build = l.rep("plan.BuildLogical+Rewrite", root, func() { lg = plan.BuildLogical(ast); plan.Rewrite(lg) })
		r0 := plan.Reorders()
		cost.compile = l.rep("plan.Compile", root, func() { pl, err = plan.Compile(env, lg, &plan.Options{}) })
		if err != nil {
			return nil, err
		}
		reorders += (plan.Reorders() - r0) / replayReps

		var res *plan.Result
		if !mode.cursor {
			a0 := plan.AdaptiveReplans()
			cost.run = l.rep("plan.Run", root, func() { res, err = pl.RunRoot() })
			if err != nil {
				return nil, err
			}
			replans += (plan.AdaptiveReplans() - a0) / replayReps
			us, err := l.coreSteps(d, eng, lg, res.Steps, root, 0, kernel, nil)
			if err != nil {
				return nil, err
			}
			run = append(run, cost.run)
			runUS += uses[qi] * cost.run
			coreUS += uses[qi] * us
		} else {
			curSpan := l.tr.begin("plan.Cursor", root)
			t0 := time.Now()
			cur, err := pl.CursorRoot(context.Background())
			if err != nil {
				return nil, err
			}
			b, err := cur.Next()
			first := time.Since(t0)
			got := len(b)
			for err == nil && b != nil && got < q.limit {
				b, err = cur.Next()
				got += len(b)
			}
			total := time.Since(t0)
			cur.Close()
			l.tr.end(curSpan)
			if err != nil {
				return nil, err
			}
			firstBatch = append(firstBatch, micros(first))
			drainNS += float64((total - first).Nanoseconds())
			drained += float64(got)
			if res, err = pl.RunLimitRoot(context.Background(), q.limit); err != nil {
				return nil, err
			}
			if _, err := l.coreSteps(d, eng, lg, res.Steps, curSpan, q.limit, kernel, &coreFirst); err != nil {
				return nil, err
			}
		}

		if mode.frontend {
			parse = append(parse, cost.parse)
			build = append(build, cost.build)
			compile = append(compile, cost.compile)
			full := l.rep("engine.EvalString", root, func() { _, err = eng.EvalString(q.text, nil) })
			if err != nil {
				return nil, err
			}
			adhoc = append(adhoc, full)
			facadeSelf = append(facadeSelf, full-cost.parse-cost.build-cost.compile-cost.run)
		}
		costs[qi] = cost
		l.tr.end(root)
	}

	for name, k := range kernel {
		if k[1] > 0 {
			l.m[name] = k[0] / k[1]
		}
	}
	if mode.cursor {
		l.m["plan.cursor_first_batch_us"] = median(firstBatch)
		if drained > 0 {
			l.m["plan.cursor_drain_ns_per_node"] = drainNS / drained
		}
		l.m["core.cursor.first_batch_us"] = median(coreFirst)
	} else {
		l.m["plan.run_us"] = median(run)
		if runUS > 0 {
			l.m["plan.run_self_frac"] = 1 - coreUS/runUS
		}
		l.m["plan.replans_per_query"] = float64(replans) / float64(len(sample))
	}
	if mode.frontend {
		l.m["xpath.parse_us"] = median(parse)
		l.m["plan.build_rewrite_us"] = median(build)
		l.m["plan.compile_us"] = median(compile)
		l.m["plan.reorders_per_query"] = float64(reorders) / float64(len(sample))
		l.m["engine.adhoc_us"] = median(adhoc)
		l.m["engine.facade_self_us"] = median(facadeSelf)
	}
	return costs, nil
}

// fragment resolves the index fragment a pushed-down node test joins
// against, as the planner does.
func fragment(d *doc.Document, t xpath.NodeTest) ([]int32, bool) {
	switch t.Kind {
	case xpath.TestName:
		id, ok := d.Names().Lookup(t.Name)
		if !ok {
			return nil, true
		}
		return d.TagIndex().Tag(id), true
	case xpath.TestText:
		return d.TagIndex().KindList(uint8(doc.Text)), true
	}
	return nil, false
}

// coreSteps replays the core kernel behind every step of a single-path
// query that ran one: core.Join / JoinNodeList (or, with limit > 0, the
// cursor kernels pulled until limit nodes) on the context the query's
// preceding steps produce. It adds time and nodes touched to kernel,
// keyed by layer metric, and returns the total replayed time in µs.
func (l *layers) coreSteps(d *doc.Document, eng *engine.Engine, lg *plan.Logical, steps []plan.StepStats,
	parent int32, limit int, kernel map[string]*[2]float64, firstBatch *[]float64) (float64, error) {
	if len(lg.Paths) != 1 || len(lg.Paths[0].Steps) != len(steps) {
		return 0, nil
	}
	lp := lg.Paths[0]
	rootCtx := []int32{d.Root()}
	var prefix []xpath.Step
	var totalUS float64
	for i, st := range lp.Steps {
		ax := st.Axis
		switch ax {
		case axis.DescendantOrSelf:
			ax = axis.Descendant
		case axis.AncestorOrSelf:
			ax = axis.Ancestor
		}
		if ax.Partitioning() && steps[i].Core.Scanned > 0 {
			ctx := rootCtx
			if i > 0 {
				r, err := eng.EvalQuery(xpath.Query{Paths: []xpath.Path{{Absolute: lp.Absolute, Steps: prefix}}}, rootCtx, nil)
				if err != nil {
					return 0, err
				}
				ctx = r.Nodes
			}
			list, pushed := []int32(nil), false
			if steps[i].Pushed {
				list, pushed = fragment(d, st.Test)
			}
			var stats core.Stats
			opts := &core.Options{Variant: core.SkipEstimate, Stats: &stats}
			name := "core." + ax.String() + ".ns_per_touched"
			if pushed {
				name = "core.nodelist.ns_per_touched"
			}
			var us float64
			var err error
			if limit == 0 {
				us = l.rep("core.Join", parent, func() {
					stats = core.Stats{}
					if pushed {
						_, err = core.JoinNodeList(d, ax, list, ctx, opts)
					} else {
						_, err = core.Join(d, ax, ctx, opts)
					}
				})
			} else {
				name = "core.cursor.ns_per_touched"
				us, err = l.coreCursor(d, ax, list, pushed, ctx, opts, limit, parent, firstBatch)
			}
			if err != nil {
				return 0, err
			}
			k := kernel[name]
			if k == nil {
				k = new([2]float64)
				kernel[name] = k
			}
			k[0] += us * 1e3
			k[1] += float64(stats.Scanned)
			totalUS += us
		}
		prefix = append(prefix, xpath.Step{Axis: st.Axis, Test: st.Test, Preds: st.Preds})
	}
	return totalUS, nil
}

// coreCursor opens a core join cursor on ctx and pulls batches until
// limit nodes came out, as the plan's streaming join does.
func (l *layers) coreCursor(d *doc.Document, ax axis.Axis, list []int32, pushed bool, ctx []int32,
	opts *core.Options, limit int, parent int32, firstBatch *[]float64) (float64, error) {
	sp := l.tr.begin("core.JoinCursor", parent)
	defer l.tr.end(sp)
	buf := make([]int32, 0, 256)
	t0 := time.Now()
	var cur core.JoinCursor
	var err error
	if pushed {
		cur, err = core.NewJoinNodeListCursor(d, ax, list, core.SliceSource(ctx), opts)
	} else {
		cur, err = core.NewJoinCursor(d, ax, core.SliceSource(ctx), opts)
	}
	if err != nil {
		return 0, err
	}
	b, err := cur.Next(buf[:0], 0)
	*firstBatch = append(*firstBatch, micros(time.Since(t0)))
	got := len(b)
	for err == nil && b != nil && got < limit {
		b, err = cur.Next(buf[:0], 0)
		got += len(b)
	}
	return micros(time.Since(t0)), err
}
