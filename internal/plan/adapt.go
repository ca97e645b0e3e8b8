// Mid-flight adaptive re-planning: the cursor-executor face of the
// greedy ordering pass (order.go).
//
// A reordered filter chain executes through one chainCursor instead of
// a stack of per-operator cursors: each batch pulled from the operator
// below the chain is filtered through the member stages in the current
// stage order. The stages are conjunctive, order-independent point
// filters, so their application order is an execution attribute — it
// can be revised between batches without changing the result. At every
// batch boundary the cursor compares each stage's *observed*
// selectivity (Laplace-smoothed survivors/input) against its
// compile-time estimate; when any stage has diverged by replanRatio or
// more, the stage order for the remaining batches is re-sorted by
// observed selectivity, cheapest-surviving stage first. Adopted
// switches increment adaptive_replans_total and surface in EXPLAIN's
// reorder footer.

package plan

import (
	"fmt"
	"sort"

	"staircase/internal/axis"
)

// replanMinRows is the minimum number of input rows a stage must have
// observed before its selectivity is trusted for divergence checks.
const replanMinRows = 16

// chainStage is one filter of an adaptive chain during one execution:
// the operator's per-node test plus its seek/termination hints and the
// running observation counters EXPLAIN and re-planning read.
type chainStage struct {
	ost   *opStat
	est   estimates
	label string
	// apply decides one node; stages are conjunctive and commutable.
	apply func(v int32) (bool, error)
	// minSeek returns the smallest input pre that could still pass this
	// stage (0 when unknown); the chain seeks to the max over stages.
	minSeek func() int32
	// exhausted, when non-nil, reports that no input node >= v can pass
	// this stage — the whole chain may stop pulling input.
	exhausted func(v int32) bool
}

// newChainStage builds the execution stage of one chain member.
func newChainStage(ec *execCtx, o op) *chainStage {
	s := &chainStage{ost: &ec.ops[o.opID()], label: chainLabel(o)}
	switch t := o.(type) {
	case *semiJoinOp:
		s.est = t.est
		list, indexed, _ := t.frag.resolve(ec)
		s.ost.indexed = indexed
		s.ost.fragSize = len(list)
		s.ost.probeDir = probeInputSeek
		if len(list) == 0 {
			s.apply = func(int32) (bool, error) { return false, nil }
			s.exhausted = func(int32) bool { return true }
			s.minSeek = func() int32 { return 0 }
			return s
		}
		pr := newSemiProbe(ec.env.Doc, t.existsAxis, list)
		s.apply = func(v int32) (bool, error) { return pr.admit(v), nil }
		s.minSeek = func() int32 { return pr.minSeek }
		s.exhausted = pr.exhaustedAfter
	case *valueSemiJoinOp:
		s.est = t.est
		list, indexed := t.scan.resolve(ec)
		if indexed {
			s.ost.indexed = true
			s.ost.fragSize = len(list)
			s.ost.probeDir = probeInputSeek
			if len(list) == 0 {
				s.apply = func(int32) (bool, error) { return false, nil }
				s.exhausted = func(int32) bool { return true }
				s.minSeek = func() int32 { return 0 }
				return s
			}
			d := ec.env.Doc
			pa, up := t.pa, t.up
			spanHi := list[len(list)-1]
			var min int32
			if pa == axis.Self {
				min = list[0]
			}
			s.apply = func(v int32) (bool, error) { return valueQualifies(d, pa, up, list, v), nil }
			s.minSeek = func() int32 { return min }
			// Every supported predicate path looks at pre ranks >= the
			// context node: past the fragment's last node nothing further
			// qualifies.
			s.exhausted = func(v int32) bool { return v >= spanHi }
			return s
		}
		prog := t.prog
		s.apply = func(v int32) (bool, error) { return prog.holds(ec, v) }
		s.minSeek = func() int32 { return 0 }
	case *predFilterOp:
		s.est = t.est
		prog := t.prog
		s.apply = func(v int32) (bool, error) { return prog.holds(ec, v) }
		s.minSeek = func() int32 { return 0 }
	}
	return s
}

// openChain opens the adaptive execution of a filter chain: the base
// operator's cursor feeding the member stages in (initially) the
// compile-time greedy order. Per-cursor stage state keeps the shared
// plan immutable under concurrent executions.
func openChain(ec *execCtx, m *chainMeta) (cursor, error) {
	in, err := m.base.open(ec)
	if err != nil {
		return nil, err
	}
	stages := make([]*chainStage, len(m.members))
	for i, mem := range m.members {
		stages[i] = newChainStage(ec, mem)
	}
	return &chainCursor{
		ec: ec, in: in, stages: stages,
		st:  &ec.steps[chainOrd(m.members[0])-1],
		ord: chainOrd(m.members[0]),
	}, nil
}

// chainCursor streams a commutable filter chain with an adjustable
// stage order.
type chainCursor struct {
	ec     *execCtx
	in     cursor
	stages []*chainStage
	st     *StepStats
	ord    int
	rows   int
	done   bool
}

func (c *chainCursor) next(seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	for {
		if err := c.ec.cancelled(); err != nil {
			return nil, err
		}
		s := seek
		for _, stg := range c.stages {
			if ms := stg.minSeek(); ms > s {
				s = ms
			}
		}
		b, err := c.in.next(s)
		if err != nil {
			return nil, err
		}
		if b == nil {
			c.done = true
			return nil, nil
		}
		last := b[len(b)-1]
		c.rows += len(b)
		// Filter in place through the stages: b is the producing
		// operator's batch buffer, released to us until our next pull.
		out := b
		for _, stg := range c.stages {
			stg.ost.ran = true
			if len(out) == 0 {
				break
			}
			n := len(out)
			kept := out[:0]
			for _, v := range out {
				ok, err := stg.apply(v)
				if err != nil {
					return nil, err
				}
				if ok {
					kept = append(kept, v)
				}
			}
			out = kept
			stg.ost.in += n
			stg.ost.out += len(out)
		}
		for _, stg := range c.stages {
			if stg.exhausted != nil && stg.exhausted(last) {
				c.done = true
				break
			}
		}
		c.maybeReplan()
		if len(out) > 0 {
			c.st.OutputSize += len(out)
			return out, nil
		}
		if c.done {
			return nil, nil
		}
	}
}

func (c *chainCursor) close() { c.in.close() }

// obsSel is a stage's Laplace-smoothed observed selectivity.
func (s *chainStage) obsSel() float64 {
	return float64(s.ost.out+1) / float64(s.ost.in+1)
}

// estSel is a stage's compile-time selectivity estimate.
func (s *chainStage) estSel() float64 {
	return float64(s.est.Out+1) / float64(s.est.In+1)
}

// maybeReplan revises the stage order at a batch boundary when any
// sufficiently observed stage's actual selectivity has diverged from
// its compile-time estimate by replanRatio or more. The revised order
// sorts stages by observed selectivity (stable: ties keep the current
// order); an adopted switch counts toward adaptive_replans_total and
// is noted for EXPLAIN.
func (c *chainCursor) maybeReplan() {
	if c.done || len(c.stages) < 2 {
		return
	}
	diverged := false
	for _, stg := range c.stages {
		if stg.ost.in < replanMinRows {
			continue
		}
		r := stg.obsSel() / stg.estSel()
		if r < 1 {
			r = 1 / r
		}
		if r >= replanRatio {
			diverged = true
			break
		}
	}
	if !diverged {
		return
	}
	ns := append([]*chainStage(nil), c.stages...)
	sort.SliceStable(ns, func(i, j int) bool { return ns[i].obsSel() < ns[j].obsSel() })
	changed := false
	for i := range ns {
		if ns[i] != c.stages[i] {
			changed = true
			break
		}
	}
	if !changed {
		return
	}
	c.stages = ns
	adaptiveReplansTotal.Add(1)
	var order []string
	for _, stg := range ns {
		order = append(order, stg.label)
	}
	c.ec.replans = append(c.ec.replans, fmt.Sprintf(
		"step %d: adaptive re-plan after %d rows: stage order %v", c.ord, c.rows, order))
}
