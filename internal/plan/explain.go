// EXPLAIN rendering: the optimized physical plan tree in text and JSON
// form, annotated per operator with compile-time cardinality estimates
// and — when a Result from an execution is supplied — the actual
// cardinalities, pushdown decisions, fragment sources and staircase
// work counters. The text form is the human surface of xpathq -explain
// and the server's GET /explain; the JSON form is the machine surface
// (GET /explain?format=json).

package plan

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
)

// ExplainTree is the JSON form of an explained plan.
type ExplainTree struct {
	Query        string   `json:"query"`
	Canon        string   `json:"canon"`
	Strategy     string   `json:"strategy"`
	Pushdown     string   `json:"pushdown"`
	Parallelism  int      `json:"parallelism,omitempty"`
	NoIndex      bool     `json:"noIndex,omitempty"`
	NoValueIndex bool     `json:"noValueIndex,omitempty"`
	NoReorder    bool     `json:"noReorder,omitempty"`
	Rewrites     []string `json:"rewrites,omitempty"`
	// Reorder lists the greedy ordering pass's fired decisions; Replans
	// the mid-flight adaptive re-plans of the supplied execution.
	Reorder     []string     `json:"reorder,omitempty"`
	Replans     []string     `json:"replans,omitempty"`
	Executed    bool         `json:"executed"`
	ResultCount int          `json:"resultCount"`
	Root        *ExplainNode `json:"root"`
}

// ExplainNode is one operator of the JSON plan tree.
type ExplainNode struct {
	Op      string `json:"op"`
	Step    int    `json:"step,omitempty"`
	Detail  string `json:"detail,omitempty"`
	Variant string `json:"variant,omitempty"`
	DocNode bool   `json:"docNode,omitempty"`
	EstIn   int64  `json:"estIn,omitempty"`
	EstOut  int64  `json:"estOut,omitempty"`
	Ran     bool   `json:"ran,omitempty"`
	In      int    `json:"in,omitempty"`
	Out     int    `json:"out,omitempty"`
	// Order is the greedy ordering pass's annotation for this operator
	// (hoisted position); ProbeDir the semijoin probe direction the
	// execution actually took.
	Order    string `json:"order,omitempty"`
	ProbeDir string `json:"probeDir,omitempty"`
	Skipped  int64  `json:"skipped,omitempty"`
	Pushed   bool   `json:"pushed,omitempty"`
	Indexed  bool   `json:"indexed,omitempty"`
	Fragment int    `json:"fragment,omitempty"`
	Bound    int64  `json:"bound,omitempty"`
	Workers  int    `json:"workers,omitempty"`
	// Fragment-scan leaves: the fragment source and exact statistics.
	Source string `json:"source,omitempty"` // "shared tag/kind index" or "name-column scan"
	Count  int64  `json:"count,omitempty"`
	Span   string `json:"span,omitempty"`
	// Staircase work counters of the owning step (join operators).
	Pruning  string         `json:"pruning,omitempty"`
	Work     string         `json:"work,omitempty"`
	Children []*ExplainNode `json:"children,omitempty"`
}

// ExplainJSON builds the JSON plan tree; res carries the actual
// per-operator cardinalities of an execution and may be nil for a
// compile-only explanation.
func (p *Plan) ExplainJSON(res *Result) ([]byte, error) {
	t := p.explainTree(res)
	return json.MarshalIndent(t, "", "  ")
}

func (p *Plan) explainTree(res *Result) *ExplainTree {
	t := &ExplainTree{
		Query:        p.Query(),
		Canon:        p.Canon(),
		Strategy:     p.opts.Strategy.String(),
		Pushdown:     p.opts.Pushdown.String(),
		Parallelism:  p.opts.Parallelism,
		NoIndex:      p.opts.NoIndex,
		NoValueIndex: p.opts.NoValueIndex,
		NoReorder:    p.opts.NoReorder,
		Rewrites:     p.rewrites,
		Reorder:      p.orderNotes,
		Root:         p.explainNode(p.root, res),
	}
	if res != nil {
		t.Executed = true
		t.ResultCount = len(res.Nodes)
		t.Replans = res.replans
	}
	return t
}

// opDetail returns the cached detail rendering of an operator — the
// predicate, step or test string EXPLAIN repeats for it. Prepared
// plans are explained many times; the strings are rendered once,
// lazily, alongside the canon cache.
func (p *Plan) opDetail(o op) string {
	p.displayOnce.Do(func() {
		p.display = make([]string, len(p.ops))
		for i, q := range p.ops {
			switch t := q.(type) {
			case *joinOp:
				p.display[i] = fmt.Sprintf("%s::%s", t.stepAxis(), t.test)
			case *axisStepOp:
				p.display[i] = fmt.Sprintf("%s::%s", t.a, t.test)
			case *predFilterOp:
				p.display[i] = fmt.Sprintf("%s", t.pred)
			case *semiJoinOp:
				p.display[i] = fmt.Sprintf("%s", t.pred)
			case *valueSemiJoinOp:
				p.display[i] = fmt.Sprintf("%s", t.pred)
			case *posFilterOp:
				p.display[i] = t.step.String()
			case *valueScan:
				p.display[i] = t.predString()
			case *fragScan:
				p.display[i] = t.test.String()
			}
		}
	})
	return p.display[o.opID()]
}

// probeDirName names the semijoin probe direction an execution took.
func probeDirName(d int8) string {
	switch d {
	case probeFragSweep:
		return "fragment-sweep (fragment partitions the input)"
	case probeInputSeek:
		return "input-seek (input nodes binary-probe the fragment)"
	}
	return ""
}

func (p *Plan) explainNode(o op, res *Result) *ExplainNode {
	n := &ExplainNode{Op: opName(o, &p.opts)}
	var ost *opStat
	if res != nil {
		ost = &res.ops[o.opID()]
	}
	switch t := o.(type) {
	case *sourceOp:
		if t.docRoot {
			n.Detail = "document root"
		} else {
			n.Detail = "caller context"
		}
	case *joinOp:
		n.Step = t.meta.ord
		n.Detail = p.opDetail(t)
		if p.opts.Strategy.staircase() {
			n.Variant = t.variant.String()
		}
		n.DocNode = t.docNode
		n.EstIn, n.EstOut = t.est.In, t.est.Out
		if res != nil {
			st := &res.Steps[t.meta.ord-1]
			if st.Core.ContextSize > 0 {
				n.Pruning = fmt.Sprintf("%d -> %d staircase partitions", st.Core.ContextSize, st.Core.PrunedSize)
				n.Work = fmt.Sprintf("scanned %d (copied %d, compared %d), skipped %d",
					st.Core.Scanned, st.Core.Copied, st.Core.Compared, st.Core.Skipped)
			}
			n.Workers = int(st.Core.Workers)
		}
	case *axisStepOp:
		n.Step = t.meta.ord
		n.Detail = p.opDetail(t)
		n.DocNode = t.docNode
		n.EstIn, n.EstOut = t.est.In, t.est.Out
	case *predFilterOp:
		n.Step = t.meta.ord
		n.Detail = fmt.Sprintf("[%s]", p.opDetail(t))
		n.EstIn, n.EstOut = t.est.In, t.est.Out
	case *semiJoinOp:
		n.Step = t.meta.ord
		n.Detail = fmt.Sprintf("[%s] on inverse axis %s", p.opDetail(t), t.inv)
		n.Variant = t.variant.String()
		n.EstIn, n.EstOut = t.est.In, t.est.Out
	case *valueSemiJoinOp:
		n.Step = t.meta.ord
		n.Detail = fmt.Sprintf("[%s] probed on axis %s", p.opDetail(t), t.pa)
		n.EstIn, n.EstOut = t.est.In, t.est.Out
	case *valueScan:
		n.Detail = p.opDetail(t)
		n.Source = p.valueSource(t)
	case *posFilterOp:
		n.Step = t.meta.ord
		n.Detail = p.opDetail(t)
		n.DocNode = t.docNode
		n.EstIn, n.EstOut = t.est.In, t.est.Out
	case *emptyOp:
		n.Detail = fmt.Sprintf("provably empty: %s; downstream operators skipped", t.reason)
	case *fragScan:
		n.Detail = p.opDetail(t)
		n.Count = t.card
		if p.opts.NoIndex {
			n.Source = "name-column scan"
		} else {
			n.Source = "shared tag/kind index"
		}
		if t.hasSpan {
			n.Span = fmt.Sprintf("[%d..%d]", t.spanLo, t.spanHi)
		}
	}
	if note, ok := p.opOrder[o.opID()]; ok {
		n.Order = note
	}
	if ost != nil && ost.ran {
		n.Ran = true
		n.In, n.Out = ost.in, ost.out
		n.ProbeDir = probeDirName(ost.probeDir)
		n.Skipped = ost.skipped
		n.Pushed, n.Indexed = ost.pushed, ost.indexed
		if ost.fragSize > 0 {
			n.Fragment = ost.fragSize
		}
		n.Bound = ost.bound
	}
	for _, kid := range o.kids() {
		n.Children = append(n.Children, p.explainNode(kid, res))
	}
	return n
}

// opName names the physical operator, resolving the strategy aliases
// of the join slot.
func opName(o op, opts *Options) string {
	switch t := o.(type) {
	case *sourceOp:
		return "Source"
	case *joinOp:
		switch opts.Strategy {
		case Naive:
			return "NaiveJoin"
		case SQL, SQLWindow:
			return "SQLJoin"
		default:
			return "StaircaseJoin"
		}
	case *axisStepOp:
		return "AxisStep"
	case *predFilterOp:
		return "PredFilter"
	case *semiJoinOp:
		return "SemiJoin"
	case *valueSemiJoinOp:
		return "ValueSemiJoin"
	case *valueScan:
		return "ValueScan"
	case *posFilterOp:
		return "PosFilter"
	case *emptyOp:
		return "EmptyResult"
	case *mergeOp:
		return "Merge"
	case *fragScan:
		if opts.NoIndex {
			return "ColumnScan"
		}
		_ = t
		return "IndexScan"
	default:
		return fmt.Sprintf("%T", o)
	}
}

// ExplainText renders the optimized plan tree as indented text, root
// operator first. res carries the actuals of an execution and may be
// nil for a compile-only explanation.
func (p *Plan) ExplainText(res *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "query: %s\n", p.Query())
	fmt.Fprintf(&sb, "plan: strategy=%s pushdown=%s", p.opts.Strategy, p.opts.Pushdown)
	if p.opts.Parallelism != 0 {
		fmt.Fprintf(&sb, " parallelism=%d", p.opts.Parallelism)
	}
	if p.opts.NoIndex {
		sb.WriteString(" no-index")
	}
	if p.opts.NoValueIndex {
		sb.WriteString(" no-value-index")
	}
	if p.opts.NoReorder {
		sb.WriteString(" no-reorder")
	}
	sb.WriteString("\n")
	if len(p.rewrites) > 0 {
		fmt.Fprintf(&sb, "rewrites: %s\n", strings.Join(p.rewrites, ", "))
	}
	if m, ok := p.root.(*mergeOp); ok {
		sb.WriteString("merge-union (document order preserved)\n")
		for i, in := range m.ins {
			fmt.Fprintf(&sb, "union branch %d: %s\n", i+1, p.logical.Query.Paths[i])
			p.renderOp(&sb, in, res, 1)
		}
	} else {
		p.renderOp(&sb, p.root, res, 0)
	}
	p.renderReorderFooter(&sb, res)
	return sb.String()
}

// renderReorderFooter prints the greedy ordering pass's fired
// decisions and — for an executed plan — the adaptive re-plans of
// that run.
func (p *Plan) renderReorderFooter(sb *strings.Builder, res *Result) {
	for _, note := range p.orderNotes {
		fmt.Fprintf(sb, "reorder: %s\n", note)
	}
	if res != nil {
		for _, note := range res.replans {
			fmt.Fprintf(sb, "reorder: %s\n", note)
		}
	}
}

// renderOp prints one operator and recurses into its inputs.
func (p *Plan) renderOp(sb *strings.Builder, o op, res *Result, depth int) {
	pad := strings.Repeat("  ", depth)
	line := func(format string, args ...any) {
		sb.WriteString(pad)
		fmt.Fprintf(sb, format, args...)
		sb.WriteByte('\n')
	}
	var ost *opStat
	if res != nil {
		ost = &res.ops[o.opID()]
	}
	card := func(est estimates) {
		if ost != nil && ost.ran {
			line("  cardinality: %d context -> est=%d actual=%d result (skipped=%d)", ost.in, est.Out, ost.out, ost.skipped)
		} else {
			line("  cardinality: est=%d context -> est=%d result", est.In, est.Out)
		}
	}
	order := func() {
		if note, ok := p.opOrder[o.opID()]; ok {
			line("  order: %s", note)
		}
		if ost != nil && ost.ran && ost.probeDir != probeUnset {
			line("  order: probe direction %s", probeDirName(ost.probeDir))
		}
	}
	switch t := o.(type) {
	case *sourceOp:
		if t.docRoot {
			line("Source (document root)")
		} else {
			line("Source (caller context)")
		}
	case *joinOp:
		p.renderJoin(sb, t, res, ost, depth, line, card)
	case *axisStepOp:
		label := fmt.Sprintf("step %d: %s::%s", t.meta.ord, t.a, t.test)
		if t.docNode {
			label += ", document node"
		}
		line("AxisStep (%s)", label)
		line("  operator: positional %s lookup (parent/size columns)", t.a)
		card(t.est)
	case *predFilterOp:
		line("PredFilter (step %d)", t.meta.ord)
		line("  predicate filter: [%s] (node at a time)", p.opDetail(t))
		card(t.est)
		order()
	case *semiJoinOp:
		line("SemiJoin (step %d)", t.meta.ord)
		line("  operator: staircase semijoin over the %s axis (exists-semijoin rewrite, set-at-a-time)", t.inv)
		line("  predicate filter: [%s] evaluated as fragment semijoin", p.opDetail(t))
		card(t.est)
		order()
	case *valueSemiJoinOp:
		line("ValueSemiJoin (step %d)", t.meta.ord)
		line("  operator: value semijoin, fragment probes on the %s axis (value-semijoin rewrite, set-at-a-time)", t.pa)
		line("  predicate filter: [%s] evaluated against the value fragment", p.opDetail(t))
		card(t.est)
		order()
	case *posFilterOp:
		label := fmt.Sprintf("step %d: %s", t.meta.ord, t.step)
		if t.docNode {
			label += ", document node"
		}
		line("PosFilter (%s)", label)
		line("  operator: per-context-node step with proximity positions (reverse axes count backwards)")
		card(t.est)
	case *emptyOp:
		line("EmptyResult (provably empty: %s; downstream operators skipped)", t.reason)
		card(estimates{})
	case *fragScan:
		p.renderFrag(sb, t, depth, line)
		return // leaves carry their detail on one block, no inputs
	case *valueScan:
		line("ValueScan (fragment %s; %s)", p.opDetail(t), p.valueSource(t))
		return
	case *mergeOp:
		line("Merge (union)")
	}
	for _, kid := range o.kids() {
		p.renderOp(sb, kid, res, depth+1)
	}
}

// renderJoin prints the join operator with its strategy, pushdown and
// parallel annotations — the physical-plan counterpart of the paper's
// Figure 3 plan analysis.
func (p *Plan) renderJoin(sb *strings.Builder, t *joinOp, res *Result, ost *opStat, depth int,
	line func(string, ...any), card func(estimates)) {
	label := fmt.Sprintf("step %d: %s::%s", t.meta.ord, t.stepAxis(), t.test)
	if t.docNode {
		label += ", document node"
	}
	switch p.opts.Strategy {
	case Naive:
		line("NaiveJoin (%s)", label)
		line("  operator: per-context region queries + sort + unique (tree-unaware)")
		line("  properties: may generate duplicates; plan appends unique over pre-sorted output")
		card(t.est)
		return
	case SQL:
		line("SQLJoin (%s)", label)
		line("  operator: B-tree indexed nested-loop semijoin (Figure 3 plan)")
		line("  properties: may generate duplicates; plan appends unique over pre-sorted output")
		card(t.est)
		return
	case SQLWindow:
		line("SQLJoin (%s)", label)
		line("  operator: B-tree indexed semijoin + Equation(1) window delimiter (§2.1 line 7)")
		line("  properties: may generate duplicates; plan appends unique over pre-sorted output")
		card(t.est)
		return
	}
	variant := map[Strategy]string{
		Staircase:       "estimation-based skipping (Algorithm 4)",
		StaircaseSkip:   "skipping (Algorithm 3)",
		StaircaseNoSkip: "basic scan (Algorithm 2)",
	}[p.opts.Strategy]
	line("StaircaseJoin (%s)", label)
	line("  operator: staircase join, %s", variant)
	line("  properties: no duplicates, document order (no unique/sort needed)")
	card(t.est)
	var st *StepStats
	if res != nil {
		st = &res.Steps[t.meta.ord-1]
		if st.Core.ContextSize > 0 {
			line("  pruning: %d -> %d staircase partitions", st.Core.ContextSize, st.Core.PrunedSize)
			line("  work: scanned %d (copied %d, compared %d), skipped %d",
				st.Core.Scanned, st.Core.Copied, st.Core.Compared, st.Core.Skipped)
		}
	}
	p.renderPushdown(t, ost, line)
	p.renderParallel(t, st, ost, line)
}

// renderPushdown prints the pushdown decision of a staircase join.
func (p *Plan) renderPushdown(t *joinOp, ost *opStat, line func(string, ...any)) {
	if !pushable(t.test) {
		return
	}
	testName := t.test.String()
	switch {
	case ost == nil || !ost.ran:
		if t.frag != nil {
			line("  pushdown: candidate fragment scan attached (policy %s, decided at execution from the context bound)", p.opts.Pushdown)
		} else {
			line("  pushdown: disabled (mode %s)", p.opts.Pushdown)
		}
	case ost.pushed && !p.opts.NoIndex:
		source := "shared tag/kind index"
		if t.frag != nil && t.frag.hasSpan {
			source += fmt.Sprintf(", pre span [%d..%d]", t.frag.spanLo, t.frag.spanHi)
		}
		line("  pushdown: test %s pushed below join (fragment %d < full-join bound %d; %s)",
			testName, ost.fragSize, ost.bound, source)
	case ost.pushed:
		line("  pushdown: test %s pushed below join (fragment %d < full-join bound %d; name-column scan, index disabled)",
			testName, ost.fragSize, ost.bound)
	case p.opts.Pushdown == PushNever:
		line("  pushdown: test %s applied after join (mode never)", testName)
	default:
		line("  pushdown: test %s applied after join (mode %s, fragment %d vs full-join bound %d)",
			testName, p.opts.Pushdown, ost.fragSize, ost.bound)
	}
}

// renderParallel prints the partition-parallel fan-out decision of a
// staircase join, mirroring the executor's cost-model branches.
func (p *Plan) renderParallel(t *joinOp, st *StepStats, ost *opStat, line func(string, ...any)) {
	if st == nil || st.Core.ContextSize == 0 {
		return
	}
	if st.Core.Workers > 1 {
		line("  parallel: %d workers over %d partitions (disjoint pre ranges, concat in document order)",
			st.Core.Workers, st.Core.PrunedSize)
		return
	}
	req := p.opts.Parallelism
	if req <= 1 && req >= 0 {
		return
	}
	if req < 0 {
		req = runtime.GOMAXPROCS(0)
	}
	switch {
	case ost != nil && ost.pushed:
		line("  parallel: n/a (name-test pushdown chose the serial fragment join)")
	case req <= 1:
		line("  parallel: n/a (GOMAXPROCS resolves to a single worker)")
	case st.Core.Workers == 1:
		line("  parallel: single chunk (%d staircase partition(s) do not split further)", st.Core.PrunedSize)
	default:
		line("  parallel: declined by cost model (step below %d touched nodes per worker)", int64(minParallelWork))
	}
}

// valueSource names where a value fragment comes from in this plan's
// configuration — the fragment-source line of ValueScan leaves.
func (p *Plan) valueSource(t *valueScan) string {
	if p.opts.NoValueIndex {
		return "per-node evaluation (value index disabled)"
	}
	switch {
	case t.contains:
		return "value index (substring scan)"
	case t.numeric:
		return "value index (numeric range)"
	default:
		return "value index (string range)"
	}
}

// renderFrag prints a fragment-scan leaf.
func (p *Plan) renderFrag(sb *strings.Builder, t *fragScan, depth int, line func(string, ...any)) {
	if p.opts.NoIndex {
		line("ColumnScan (fragment %s; name-column scan, index disabled)", t.test)
		return
	}
	detail := fmt.Sprintf("fragment %s", t.test)
	if t.card >= 0 {
		detail += fmt.Sprintf(": %d nodes", t.card)
	}
	if t.hasSpan {
		detail += fmt.Sprintf(", pre span [%d..%d]", t.spanLo, t.spanHi)
	}
	line("IndexScan (%s; shared tag/kind index)", detail)
}
