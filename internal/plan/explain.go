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
	"strings"
)

// ExplainTree is the JSON form of an explained plan.
type ExplainTree struct {
	Query        string   `json:"query"`
	Canon        string   `json:"canon"`
	Pushdown     string   `json:"pushdown"`
	NoIndex      bool     `json:"noIndex,omitempty"`
	NoValueIndex bool     `json:"noValueIndex,omitempty"`
	NoReorder    bool     `json:"noReorder,omitempty"`
	Rewrites     []string `json:"rewrites,omitempty"`
	// Reorder lists the greedy ordering pass's fired decisions.
	Reorder     []string     `json:"reorder,omitempty"`
	Executed    bool         `json:"executed"`
	ResultCount int          `json:"resultCount"`
	Root        *ExplainNode `json:"root"`
}

// ExplainNode is one operator of the JSON plan tree.
type ExplainNode struct {
	Op      string `json:"op"`
	Step    int    `json:"step,omitempty"`
	Detail  string `json:"detail,omitempty"`
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
		Pushdown:     p.opts.Pushdown.String(),
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
	}
	return t
}

// opDetail returns the cached detail rendering of an operator — the
// predicate, step or test string EXPLAIN repeats for it. Prepared
// plans are explained many times; the strings are rendered once,
// lazily, alongside the canon cache.
func (p *Plan) opDetail(o planNode) string {
	p.displayOnce.Do(func() {
		p.display = make([]string, len(p.ops))
		for i, q := range p.ops {
			switch t := q.(type) {
			case *joinOp:
				p.display[i] = fmt.Sprintf("%s::%s", t.stepAxis(), t.test)
			case *axisStepOp:
				p.display[i] = fmt.Sprintf("%s::%s", t.a, t.test)
			case filterOp:
				p.display[i] = t.filter().pred.String()
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

func (p *Plan) explainNode(o planNode, res *Result) *ExplainNode {
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
		n.DocNode = t.docNode
		n.EstIn, n.EstOut = t.est.In, t.est.Out
		if res != nil {
			st := &res.Steps[t.meta.ord-1]
			if st.Core.ContextSize > 0 {
				n.Pruning = fmt.Sprintf("%d -> %d staircase partitions", st.Core.ContextSize, st.Core.PrunedSize)
				n.Work = fmt.Sprintf("scanned %d (copied %d, compared %d), skipped %d",
					st.Core.Scanned, st.Core.Copied, st.Core.Compared, st.Core.Skipped)
			}
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
		n.Detail = fmt.Sprintf("[%s] %s", p.opDetail(t), t.relation())
		n.EstIn, n.EstOut = t.est.In, t.est.Out
	case *valueScan:
		n.Detail = p.opDetail(t)
		n.Source = valueSource(t)
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
	}
	for _, kid := range o.kids() {
		n.Children = append(n.Children, p.explainNode(kid, res))
	}
	return n
}

// opName names the physical operator.
func opName(o planNode, opts *Options) string {
	switch o.(type) {
	case *sourceOp:
		return "Source"
	case *joinOp:
		return "StaircaseJoin"
	case *axisStepOp:
		return "AxisStep"
	case *predFilterOp:
		return "PredFilter"
	case *semiJoinOp:
		return "SemiJoin"
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
	fmt.Fprintf(&sb, "plan: pushdown=%s", p.opts.Pushdown)
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
	for _, note := range p.orderNotes {
		fmt.Fprintf(&sb, "reorder: %s\n", note)
	}
	return sb.String()
}

// renderOp prints one operator and recurses into its inputs.
func (p *Plan) renderOp(sb *strings.Builder, o planNode, res *Result, depth int) {
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
		if t.streams() {
			line("  operator: streaming %s sweep (post/level subtree jumps)", t.a)
		} else {
			line("  operator: blocking %s lookup (parent/size columns)", t.a)
		}
		card(t.est)
	case *predFilterOp:
		line("PredFilter (step %d)", t.meta.ord)
		line("  predicate filter: [%s] (node at a time)", p.opDetail(t))
		card(t.est)
		order()
	case *semiJoinOp:
		line("SemiJoin (step %d)", t.meta.ord)
		line("  operator: semijoin, %s (set-at-a-time)", t.relation())
		line("  predicate filter: [%s] evaluated against the fragment", p.opDetail(t))
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
		line("ValueScan (fragment %s; %s)", p.opDetail(t), valueSource(t))
		return
	case *mergeOp:
		line("Merge (union)")
	}
	for _, kid := range o.kids() {
		p.renderOp(sb, kid, res, depth+1)
	}
}

// renderJoin prints the join operator with its skip rule and pushdown
// annotations.
func (p *Plan) renderJoin(sb *strings.Builder, t *joinOp, res *Result, ost *opStat, depth int,
	line func(string, ...any), card func(estimates)) {
	label := fmt.Sprintf("step %d: %s::%s", t.meta.ord, t.stepAxis(), t.test)
	if t.docNode {
		label += ", document node"
	}
	line("StaircaseJoin (%s)", label)
	line("  operator: staircase join, estimation-based skipping (Algorithm 4)")
	line("  properties: no duplicates, document order (no unique/sort needed)")
	card(t.est)
	if res != nil {
		if st := &res.Steps[t.meta.ord-1]; st.Core.ContextSize > 0 {
			line("  pruning: %d -> %d staircase partitions", st.Core.ContextSize, st.Core.PrunedSize)
			line("  work: scanned %d (copied %d, compared %d), skipped %d",
				st.Core.Scanned, st.Core.Copied, st.Core.Compared, st.Core.Skipped)
		}
	}
	p.renderPushdown(t, ost, line)
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
			line("  pushdown: candidate fragment scan attached (policy %s)", p.opts.Pushdown)
		} else {
			line("  pushdown: disabled (mode %s)", p.opts.Pushdown)
		}
	case ost.pushed && !p.opts.NoIndex:
		source := "shared tag/kind index"
		if t.frag != nil && t.frag.hasSpan {
			source += fmt.Sprintf(", pre span [%d..%d]", t.frag.spanLo, t.frag.spanHi)
		}
		line("  pushdown: test %s pushed below join (fragment %d; %s)", testName, ost.fragSize, source)
	case ost.pushed:
		line("  pushdown: test %s pushed below join (fragment %d; name-column scan, index disabled)", testName, ost.fragSize)
	case p.opts.Pushdown == PushNever:
		line("  pushdown: test %s applied after join (mode never)", testName)
	default:
		line("  pushdown: test %s applied after join (mode %s, index disabled)", testName, p.opts.Pushdown)
	}
}

// valueSource names where a value fragment comes from — the
// fragment-source line of ValueScan leaves.
func valueSource(t *valueScan) string {
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
