package plan

// Tests of chained pipeline breakers: a blocking step opens its input
// whole, so an input that is itself blocking hands over its materialised
// slice in one batch instead of copying it batch by batch.

import (
	"context"
	"math"
	"slices"
	"testing"

	"staircase/internal/spec"
	"staircase/internal/xpath"
)

// blockingShapes chain blocking steps over climbXML's nested inputs:
// child, parent and attribute steps on child steps (//p/*/@k is empty:
// only p elements carry k), a positional step, and a child chain under a
// value predicate.
var blockingShapes = []string{
	"//p/a/b",
	"//s/t/x",
	"//p/a/..",
	"//p/*/@k",
	"//a/*/@k",
	"//s/*[1]",
	"//p[v > 230]/a/b",
}

// blockingChains counts the AxisSteps of p whose input is an AxisStep,
// the shape that hands its input over whole.
func blockingChains(p *Plan) int {
	n := 0
	for _, o := range p.ops {
		if s, ok := o.(*axisStepOp); ok {
			if _, ok := s.in.(*axisStepOp); ok {
				n++
			}
		}
	}
	return n
}

// TestBlockingChainFacesMatchSpec runs every shape through Plan.Run, a
// cursor drain, RunLimit(1) and RunLimit(3), under the default options
// and NoReorder, against spec.EvalQuery.
func TestBlockingChainFacesMatchSpec(t *testing.T) {
	d := shredString(t, climbXML())
	env := NewEnv(d)
	root := []int32{d.Root()}
	chained := 0
	for _, q := range blockingShapes {
		pq, err := xpath.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		want := spec.EvalQuery(d, pq, root)
		for _, opts := range []*Options{nil, {NoReorder: true}} {
			p := compileQuery(t, env, q, opts)
			chained += blockingChains(p)
			res, err := p.Run(root)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Nodes, want) {
				t.Errorf("%s %+v: Run %v, spec %v", q, opts, res.Nodes, want)
			}
			cur, err := p.Cursor(context.Background(), root)
			if err != nil {
				t.Fatal(err)
			}
			var drained []int32
			for {
				b, err := cur.Next()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
				drained = append(drained, b...)
			}
			cur.Close()
			if !slices.Equal(drained, want) {
				t.Errorf("%s %+v: cursor %v, spec %v", q, opts, drained, want)
			}
			for _, k := range []int{1, 3, math.MaxInt} {
				lr, err := p.RunLimit(context.Background(), root, k)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(lr.Nodes, want[:min(k, len(want))]) {
					t.Errorf("%s %+v: RunLimit(%d) %v, spec %v", q, opts, k, lr.Nodes, want)
				}
			}
		}
	}
	if chained == 0 {
		t.Error("no shape chains two blocking steps")
	}
}
