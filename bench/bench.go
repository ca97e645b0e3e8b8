// Package bench regenerates the tables and figures of the staircase
// join paper's evaluation (§4.4, Experiments 1–3) plus the §2.1 window
// experiment, the §4.1 storage claim, the §5 related-work comparison and
// the §6 fragmentation extension: twelve tables. cmd/benchrun prints
// them; the repository-level testing.B benchmarks share its corpus.
//
// Scale: the paper sweeps XMark documents of 1.1–1111 MB (50 k–50 M
// nodes) on 2002 hardware. The harness sweeps the same shape at
// configurable sizes (default 0.5–4 MB equivalents). Each table mixes
// counts, the paper's reproducible claim, with wall-clock times that only
// illustrate them: `go test ./bench -run Paper -v` holds the counts to
// testdata/paper_golden.json and the paper's shapes, and prints every
// table.
package bench

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"staircase/bench/internal/baseline"
	"staircase/internal/axis"
	"staircase/internal/core"
	"staircase/internal/doc"
	"staircase/internal/engine"
	"staircase/internal/xmark"
)

// Q1 and Q2 are the paper's benchmark queries (Table 1).
const (
	Q1 = "/descendant::profile/descendant::education"
	Q2 = "/descendant::increase/ancestor::bidder"
)

// Corpus generates and caches sweep documents so experiments share
// them. Safe for concurrent use.
type Corpus struct {
	mu    sync.Mutex
	docs  map[float64]*doc.Document
	vdocs map[float64]*doc.Document
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{
		docs:  make(map[float64]*doc.Document),
		vdocs: make(map[float64]*doc.Document),
	}
}

// Doc returns the cached document of the given size, generating it on
// first use (seed fixed at 42 for reproducibility, values dropped).
func (c *Corpus) Doc(mb float64) *doc.Document {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d, ok := c.docs[mb]; ok {
		return d
	}
	d, err := xmark.Generate(xmark.Config{SizeMB: mb, Seed: 42})
	if err != nil {
		panic(fmt.Sprintf("bench: generate %g MB: %v", mb, err))
	}
	c.docs[mb] = d
	return d
}

// ValueDoc returns the cached document of the given size with text and
// attribute values retained (same seed and structure as Doc) — the
// corpus of the value-index tests and benchmarks, kept separate because
// value retention roughly doubles the per-document memory.
func (c *Corpus) ValueDoc(mb float64) *doc.Document {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d, ok := c.vdocs[mb]; ok {
		return d
	}
	d, err := xmark.Generate(xmark.Config{SizeMB: mb, Seed: 42, KeepValues: true})
	if err != nil {
		panic(fmt.Sprintf("bench: generate %g MB with values: %v", mb, err))
	}
	c.vdocs[mb] = d
	return d
}

// Experiments lists the twelve experiments in the paper's order; the ids
// are the tables' IDs and cmd/benchrun's -exp values.
var Experiments = []struct {
	ID  string
	Run func(c *Corpus, sizes []float64) Table
}{
	{"table1", Table1}, {"fig3", Fig3}, {"fig11a", Fig11a}, {"fig11b", Fig11b},
	{"fig11c", Fig11c}, {"fig11d", Fig11d}, {"fig11e", Fig11e}, {"fig11f", Fig11f},
	{"window", Window}, {"frag", Fragmentation}, {"mpmgjn", MPMGJN}, {"storage", Storage},
}

// Table is a printable experiment result.
type Table struct {
	ID     string   // experiment id, e.g. "fig11c"
	Title  string   // paper artifact it regenerates
	Header []string // column names
	Rows   [][]string
	Notes  []string // caveats / observations
}

// Format renders the table with aligned columns.
func (t Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// timeIt runs f reps times and returns the fastest wall-clock duration
// (the usual noise-robust choice for micro-measurements).
func timeIt(reps int, f func()) time.Duration {
	if reps < 1 {
		reps = 1
	}
	best := time.Duration(1<<62 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000.0)
}

// contexts extracts the Q1/Q2 step contexts from a document.
type contexts struct {
	d         *doc.Document
	profiles  []int32 // Q1 step-1 result (context of step 2)
	increases []int32 // Q2 step-1 result (context of step 2)
}

func getContexts(d *doc.Document) contexts {
	e := engine.New(d)
	prof, err := e.EvalString("/descendant::profile", nil)
	if err != nil {
		panic(err)
	}
	inc, err := e.EvalString("/descendant::increase", nil)
	if err != nil {
		panic(err)
	}
	return contexts{d: d, profiles: prof.Nodes, increases: inc.Nodes}
}

// Table1 regenerates the paper's Table 1: the number of nodes in
// intermediary results for Q1 and Q2. Columns follow the paper: the
// descendant-of-root region, the step-1 result, the step-2 axis result
// before the name test, and the final result.
func Table1(c *Corpus, sizes []float64) Table {
	t := Table{
		ID:     "table1",
		Title:  "Table 1: number of nodes in intermediary results (Q1, Q2)",
		Header: []string{"size[MB]", "nodes", "query", "/descendant::node()", "step1", "step2-axis", "result"},
		Notes: []string{
			"paper (1 GB, 50,844,982 nodes): Q1 = 47,015,212 | 127,984 | 1,849,360 | 63,793",
			"paper                          : Q2 = 47,015,212 | 597,777 |   706,193 | 597,777",
		},
	}
	for _, mb := range sizes {
		d := c.Doc(mb)
		cx := getContexts(d)
		rootDesc, _ := core.Join(d, axis.Descendant, []int32{d.Root()}, nil)
		e := engine.New(d)

		// Q1: step-2 descendant axis over the profile context, then
		// the education name test.
		q1axis, _ := core.Join(d, axis.Descendant, cx.profiles, nil)
		q1res, err := e.EvalString(Q1, nil)
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", mb), fmt.Sprint(d.Size()), "Q1",
			fmt.Sprint(len(rootDesc)), fmt.Sprint(len(cx.profiles)),
			fmt.Sprint(len(q1axis)), fmt.Sprint(len(q1res.Nodes)),
		})

		// Q2: step-2 ancestor axis over the increase context, then the
		// bidder name test.
		q2axis := baseline.AncestorJoin(d, cx.increases, nil)
		q2res, err := e.EvalString(Q2, nil)
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", mb), fmt.Sprint(d.Size()), "Q2",
			fmt.Sprint(len(rootDesc)), fmt.Sprint(len(cx.increases)),
			fmt.Sprint(len(q2axis)), fmt.Sprint(len(q2res.Nodes)),
		})
	}
	return t
}

// Fig3 regenerates the Figure 3 scenario: the two-step path
// (c)/following::node()/descendant::node() evaluated by the SQL plan
// (B-tree indexed semijoin + unique) versus the staircase join, with
// plan-level work counters.
func Fig3(c *Corpus, sizes []float64) Table {
	t := Table{
		ID:     "fig3",
		Title:  "Figure 3: SQL region-query plan vs staircase join (following/descendant path)",
		Header: []string{"size[MB]", "result", "sql-keys-scanned", "sql-dups", "sql[ms]", "scj-scanned", "scj[ms]"},
		Notes: []string{
			"context: first increase node; path following::node()/descendant::node()",
			"the SQL plan needs unique (duplicates column); staircase join produces none by construction",
		},
	}
	for _, mb := range sizes {
		d := c.Doc(mb)
		cx := getContexts(d)
		if len(cx.increases) == 0 {
			continue
		}
		ctx := []int32{cx.increases[0]}
		sqlEng := baseline.NewSQLEngine(d)

		var sqlRes []int32
		sqlTime := timeIt(3, func() {
			sqlEng.Stats.Reset()
			sqlEng.JoinStats = baseline.SQLJoinStats{}
			f, err := sqlEng.Step(axis.Following, ctx, baseline.SQLOptions{})
			if err != nil {
				panic(err)
			}
			sqlRes, err = sqlEng.Step(axis.Descendant, f, baseline.SQLOptions{})
			if err != nil {
				panic(err)
			}
		})
		keys := sqlEng.Stats.KeysScanned
		dups := sqlEng.JoinStats.Duplicates

		var scjRes []int32
		var scjStats core.Stats
		scjTime := timeIt(3, func() {
			scjStats = core.Stats{}
			o := core.DefaultOptions()
			o.Stats = &scjStats
			f, _ := core.Join(d, axis.Following, ctx, o)
			scjRes, _ = core.Join(d, axis.Descendant, f, o)
		})
		if len(sqlRes) != len(scjRes) {
			panic(fmt.Sprintf("bench: fig3 result mismatch: %d vs %d", len(sqlRes), len(scjRes)))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", mb), fmt.Sprint(len(scjRes)),
			fmt.Sprint(keys), fmt.Sprint(dups), ms(sqlTime),
			fmt.Sprint(scjStats.Scanned), ms(scjTime),
		})
	}
	return t
}

// Fig11a regenerates Figure 11 (a): duplicates avoided by the staircase
// join on the ancestor step of Q2 (naive per-context evaluation vs
// staircase join).
func Fig11a(c *Corpus, sizes []float64) Table {
	t := Table{
		ID:     "fig11a",
		Title:  "Figure 11 (a): avoiding duplicates (Q2 ancestor step)",
		Header: []string{"size[MB]", "context", "naive-produced", "staircase", "dups-avoided", "dup-ratio"},
		Notes: []string{
			"paper: ≈75% duplicates (increase paths intersect at level 3)",
		},
	}
	for _, mb := range sizes {
		d := c.Doc(mb)
		cx := getContexts(d)
		var nst baseline.NaiveStats
		baseline.NaiveJoin(d, axis.Ancestor, cx.increases, &nst)
		scj := baseline.AncestorJoin(d, cx.increases, nil)
		ratio := 0.0
		if nst.Produced > 0 {
			ratio = float64(nst.Duplicates) / float64(nst.Produced)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", mb), fmt.Sprint(len(cx.increases)),
			fmt.Sprint(nst.Produced), fmt.Sprint(len(scj)),
			fmt.Sprint(nst.Duplicates), fmt.Sprintf("%.2f", ratio),
		})
	}
	return t
}

// Fig11b regenerates Figure 11 (b): staircase join execution time for
// Q2 across document sizes (the linearity experiment).
func Fig11b(c *Corpus, sizes []float64) Table {
	t := Table{
		ID:     "fig11b",
		Title:  "Figure 11 (b): staircase join performance (Q2), linear in document size",
		Header: []string{"size[MB]", "nodes", "result", "time[ms]", "ms-per-Mnode"},
	}
	for _, mb := range sizes {
		d := c.Doc(mb)
		e := engine.New(d)
		var res *engine.Result
		dur := timeIt(3, func() {
			var err error
			res, err = e.EvalString(Q2, &engine.Options{Pushdown: engine.PushNever})
			if err != nil {
				panic(err)
			}
		})
		perM := float64(dur.Nanoseconds()) / 1e6 / (float64(d.Size()) / 1e6)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", mb), fmt.Sprint(d.Size()), fmt.Sprint(len(res.Nodes)),
			ms(dur), fmt.Sprintf("%.2f", perM),
		})
	}
	return t
}

// Fig11c regenerates Figure 11 (c): nodes scanned by the staircase join
// in the second axis step of Q1 — no skipping vs skipping vs
// estimation-based skipping vs the result size.
func Fig11c(c *Corpus, sizes []float64) Table {
	t := Table{
		ID:     "fig11c",
		Title:  "Figure 11 (c): effectiveness of skipping (Q1 step 2, nodes accessed)",
		Header: []string{"size[MB]", "no-skip", "skip", "skip-est(compared)", "result", "skipped%"},
		Notes: []string{
			"paper: ≈92% of nodes skipped; accessed nodes become independent of document size",
			"skip-est accesses the same nodes as skip but compares only the (compared) column; the rest is bulk-copied",
		},
	}
	for _, mb := range sizes {
		d := c.Doc(mb)
		cx := getContexts(d)
		stats := map[core.Variant]core.Stats{}
		for _, v := range []core.Variant{core.NoSkip, core.Skip, core.SkipEstimate} {
			var st core.Stats
			core.Join(d, axis.Descendant, cx.profiles, &core.Options{Variant: v, Stats: &st})
			stats[v] = st
		}
		skipPct := 0.0
		if stats[core.NoSkip].Scanned > 0 {
			skipPct = 100 * float64(stats[core.NoSkip].Scanned-stats[core.Skip].Scanned) /
				float64(stats[core.NoSkip].Scanned)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", mb),
			fmt.Sprint(stats[core.NoSkip].Scanned),
			fmt.Sprint(stats[core.Skip].Scanned),
			fmt.Sprintf("%d(%d)", stats[core.SkipEstimate].Scanned, stats[core.SkipEstimate].Compared),
			fmt.Sprint(stats[core.Skip].Result),
			fmt.Sprintf("%.1f", skipPct),
		})
	}
	return t
}

// Fig11d regenerates Figure 11 (d): execution times of the three
// skipping variants on Q1's second axis step.
func Fig11d(c *Corpus, sizes []float64) Table {
	t := Table{
		ID:     "fig11d",
		Title:  "Figure 11 (d): effectiveness of skipping (Q1 step 2, time)",
		Header: []string{"size[MB]", "no-skip[ms]", "skip[ms]", "skip-est[ms]"},
		Notes: []string{
			"paper: skipping ≈ halves time at large sizes; estimation adds ≈20%",
		},
	}
	for _, mb := range sizes {
		d := c.Doc(mb)
		cx := getContexts(d)
		row := []string{fmt.Sprintf("%.1f", mb)}
		for _, v := range []core.Variant{core.NoSkip, core.Skip, core.SkipEstimate} {
			o := &core.Options{Variant: v}
			dur := timeIt(5, func() { core.Join(d, axis.Descendant, cx.profiles, o) })
			row = append(row, ms(dur))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// figEF shares the Experiment 3 implementation for Figures 11 (e)/(f);
// steps spells the query for the SQL plan.
func figEF(c *Corpus, sizes []float64, id, query string, steps []TagStep) Table {
	t := Table{
		ID:     id,
		Title:  fmt.Sprintf("Figure 11 (%s): performance comparison, %s", id[len(id)-1:], query),
		Header: []string{"size[MB]", "result", "scj[ms]", "scj-early-nametest[ms]", "sql[ms]", "pushdown-speedup"},
		Notes: []string{
			"paper: early name test ≈3x faster; tree-unaware SQL plan slowest",
		},
	}
	for _, mb := range sizes {
		d := c.Doc(mb)
		e := engine.New(d)
		run := func(opts *engine.Options) (time.Duration, int) {
			var n int
			dur := timeIt(3, func() {
				r, err := e.EvalString(query, opts)
				if err != nil {
					panic(err)
				}
				n = len(r.Nodes)
			})
			return dur, n
		}
		scj, n1 := run(&engine.Options{Pushdown: engine.PushNever})
		early, n2 := run(&engine.Options{Pushdown: engine.PushAlways})
		sqlEng := baseline.NewSQLEngine(d)
		var n3 int
		sql := timeIt(3, func() {
			r, err := SQLPath(sqlEng, d, steps)
			if err != nil {
				panic(err)
			}
			n3 = len(r)
		})
		if n1 != n2 || n1 != n3 {
			panic(fmt.Sprintf("bench: %s result mismatch: %d/%d/%d", id, n1, n2, n3))
		}
		speedup := float64(scj.Nanoseconds()) / float64(early.Nanoseconds())
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", mb), fmt.Sprint(n1),
			ms(scj), ms(early), ms(sql), fmt.Sprintf("%.1fx", speedup),
		})
	}
	return t
}

// Fig11e regenerates Figure 11 (e): Q1 across engines.
func Fig11e(c *Corpus, sizes []float64) Table { return figEF(c, sizes, "fig11e", Q1, Q1Steps) }

// Fig11f regenerates Figure 11 (f): Q2 across engines.
func Fig11f(c *Corpus, sizes []float64) Table { return figEF(c, sizes, "fig11f", Q2, Q2Steps) }

// Window regenerates the §2.1 experiment: the Equation (1) window
// predicate (SQL query line 7) delimiting descendant index range scans.
func Window(c *Corpus, sizes []float64) Table {
	t := Table{
		ID:     "window",
		Title:  "§2.1: Equation (1) window delimits descendant index scans (Q1 step 2 via SQL plan)",
		Header: []string{"size[MB]", "keys-scanned", "keys-scanned+window", "reduction"},
		Notes: []string{
			"paper: speed-up of up to three orders of magnitude from the window predicate [8]",
		},
	}
	for _, mb := range sizes {
		d := c.Doc(mb)
		cx := getContexts(d)
		e := baseline.NewSQLEngine(d)
		e.Stats.Reset()
		if _, err := e.Step(axis.Descendant, cx.profiles, baseline.SQLOptions{}); err != nil {
			panic(err)
		}
		plain := e.Stats.KeysScanned
		e.Stats.Reset()
		if _, err := e.Step(axis.Descendant, cx.profiles, baseline.SQLOptions{UseWindow: true}); err != nil {
			panic(err)
		}
		window := e.Stats.KeysScanned
		red := float64(plain) / float64(window)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", mb), fmt.Sprint(plain), fmt.Sprint(window), fmt.Sprintf("%.0fx", red),
		})
	}
	return t
}

// TagStep is one (axis, tag) step of a TagPath or an SQLPath.
type TagStep struct {
	Axis axis.Axis
	Tag  string
}

// Q1Steps and Q2Steps spell Q1 and Q2 as (axis, tag) steps from the
// root.
var (
	Q1Steps = []TagStep{{Axis: axis.Descendant, Tag: "profile"}, {Axis: axis.Descendant, Tag: "education"}}
	Q2Steps = []TagStep{{Axis: axis.Descendant, Tag: "increase"}, {Axis: axis.Ancestor, Tag: "bidder"}}
)

// SQLPath evaluates a chain of (axis, tag) steps from the document root
// with the SQL plan of Figure 3: each step is one B-tree indexed
// semijoin whose concatenated (pre, post, tag) keys apply the name test
// inside the index scan (the paper's DB2 observation).
func SQLPath(e *baseline.SQLEngine, d *doc.Document, steps []TagStep) ([]int32, error) {
	context := []int32{d.Root()}
	for _, st := range steps {
		var err error
		if context, err = e.Step(st.Axis, context, baseline.SQLOptions{Tag: st.Tag}); err != nil {
			return nil, err
		}
	}
	return context, nil
}

// TagPath evaluates a chain of (axis, tag) steps from the document root
// entirely over tag fragments: each step is a staircase join over the
// shared tag index's node list for its tag (§6, fragmentation by tag
// name).
func TagPath(d *doc.Document, steps []TagStep, opts *core.Options) ([]int32, error) {
	context := []int32{d.Root()}
	for _, st := range steps {
		id, ok := d.Names().Lookup(st.Tag)
		if !ok {
			return nil, nil
		}
		var err error
		if context, err = core.JoinNodeList(d, st.Axis, d.TagIndex().Tag(id), context, opts); err != nil {
			return nil, err
		}
	}
	return context, nil
}

// Fragmentation regenerates the §6 fragmentation experiment: Q1 over
// the regular engine vs staircase joins over the tag index's fragments
// (paper: 345 ms → 39 ms).
func Fragmentation(c *Corpus, sizes []float64) Table {
	t := Table{
		ID:     "frag",
		Title:  "§6: fragmentation by tag name (Q1)",
		Header: []string{"size[MB]", "result", "scj[ms]", "fragmented[ms]", "speedup"},
		Notes: []string{
			"paper: Q1 345 ms → 39 ms (≈8.8x) with tag-name fragments",
		},
	}
	for _, mb := range sizes {
		d := c.Doc(mb)
		e := engine.New(d)
		var n1 int
		scj := timeIt(3, func() {
			r, err := e.EvalString(Q1, &engine.Options{Pushdown: engine.PushNever})
			if err != nil {
				panic(err)
			}
			n1 = len(r.Nodes)
		})
		d.TagIndex() // built once per document, outside the timing
		var n2 int
		fragged := timeIt(3, func() {
			r, err := TagPath(d, Q1Steps, nil)
			if err != nil {
				panic(err)
			}
			n2 = len(r)
		})
		if n1 != n2 {
			panic(fmt.Sprintf("bench: frag result mismatch: %d vs %d", n1, n2))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", mb), fmt.Sprint(n1), ms(scj), ms(fragged),
			fmt.Sprintf("%.1fx", float64(scj.Nanoseconds())/float64(fragged.Nanoseconds())),
		})
	}
	return t
}

// MPMGJN is the §5 related-work comparison on Q2's ancestor step:
// nodes touched by the staircase join vs MPMGJN (Zhang et al. 2001).
func MPMGJN(c *Corpus, sizes []float64) Table {
	t := Table{
		ID:     "mpmgjn",
		Title:  "§5: staircase join vs MPMGJN (Q2 ancestor step)",
		Header: []string{"size[MB]", "result", "scj-touched", "mpmgjn-touched", "mpmgjn/scj"},
		Notes: []string{
			"paper: 'due to pruning and skipping, staircase join touches and tests less nodes than MPMGJN'",
			"the indexed structural join of Chien et al. ([5] in the paper) is not reproduced",
		},
	}
	for _, mb := range sizes {
		d := c.Doc(mb)
		cx := getContexts(d)
		var ss core.Stats
		scj := baseline.AncestorJoin(d, cx.increases, &core.Options{Variant: core.Skip, Stats: &ss})
		var msSt baseline.MPMGJNStats
		mp := baseline.MPMGJNAncestor(d, cx.increases, &msSt)
		if len(scj) != len(mp) {
			panic("bench: related-join result mismatch")
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", mb), fmt.Sprint(len(scj)),
			fmt.Sprint(ss.Scanned), fmt.Sprint(msSt.Touched),
			fmt.Sprintf("%.1fx", float64(msSt.Touched)/float64(ss.Scanned)),
		})
	}
	return t
}

// Storage regenerates the §4.1 storage claim: "a document occupies
// only about 1.5× its size in Monet using our storage structure". We
// compare the serialized XML size against the structural encoding
// (void pre column costs nothing; post/level/parent/name are int32
// columns, kind one byte).
func Storage(c *Corpus, sizes []float64) Table {
	t := Table{
		ID:     "storage",
		Title:  "§4.1: storage footprint of the pre/post encoding vs XML text",
		Header: []string{"size[MB]", "nodes", "xml-bytes", "encoded-bytes", "ratio", "bytes/node"},
		Notes: []string{
			"paper: 'a document occupies only about 1.5× its size in Monet' (structure only; text values excluded on both sides of their claim's spirit)",
		},
	}
	for _, mb := range sizes {
		d := c.Doc(mb)
		var cnt countingWriter
		if err := xmark.Write(&cnt, xmark.Config{SizeMB: mb, Seed: 42}); err != nil {
			panic(err)
		}
		enc := d.EncodedBytes()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", mb), fmt.Sprint(d.Size()),
			fmt.Sprint(cnt.n), fmt.Sprint(enc),
			fmt.Sprintf("%.2fx", float64(enc)/float64(cnt.n)),
			fmt.Sprintf("%.1f", float64(enc)/float64(d.Size())),
		})
	}
	return t
}

// countingWriter counts bytes written.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
