package plan

// Tests of the climb semijoin (semijoin.go) on both execution faces:
// every shape a climb serves, drained through Plan.Run, a cursor and
// RunLimit, must return the reference evaluator's nodes.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"staircase/internal/spec"
	"staircase/internal/xpath"
)

// climbXML is 240 <p> records with a numbered <v> child and a k
// attribute; some hold <a><b/></a>, an empty <a/> or text, some nest
// s/t/x chains, and every eleventh nests another <p> inside an <a>, so
// both the climbs' inputs and their fragments nest.
func climbXML() string {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 240; i++ {
		fmt.Fprintf(&sb, `<p k="%d"><v>%d</v>`, i%7, i)
		if i%3 == 0 {
			sb.WriteString("<a><b/></a>")
		}
		if i%4 == 0 {
			sb.WriteString("<a/>")
		}
		if i%5 == 0 {
			sb.WriteString("t")
		}
		if i%8 == 0 {
			sb.WriteString("<s><x/><s><t><x/></t>u<s><t/></s></s></s>")
		}
		if i%11 == 0 {
			fmt.Fprintf(&sb, `<a><p k="9"><v>%d</v><x/><a><b/></a></p></a>`, 1000+i)
		}
		sb.WriteString("</p>")
	}
	sb.WriteString("</r>")
	return sb.String()
}

// climbShapes are the climb semijoins' shapes: a selective value
// predicate over a wide input, the same followed by existential child
// climbs, wide fragments, and existential child paths over nested
// inputs.
var climbShapes = []string{
	"//p[v > 230]",
	"//p[v > 230][a]",
	"//p[v > 230][a/b]",
	"//p[@k = '3'][v < 40]",
	"//p[v >= 0][a/b]",
	"//p[a/b][v > 1100]",
	"//p[v > 230]/a",
	"//*[x]",
	"//*[*/x]",
	"//*[text()]",
	"//s[t/x]",
	"//p[descendant-or-self::x]",
}

// TestClimbSemiJoinFacesMatchSpec runs every climb shape through
// Plan.Run, a cursor drain, RunLimit(1) and RunLimit(3), under the
// default options and NoReorder, against spec.EvalQuery.
func TestClimbSemiJoinFacesMatchSpec(t *testing.T) {
	d := shredString(t, climbXML())
	env := NewEnv(d)
	root := []int32{d.Root()}
	for _, q := range climbShapes {
		pq, err := xpath.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		want := spec.EvalQuery(d, pq, root)
		if len(want) == 0 {
			t.Fatalf("%s: empty reference result", q)
		}
		for _, opts := range []*Options{nil, {NoReorder: true}} {
			p := compileQuery(t, env, q, opts)
			findSemiJoin(t, p)
			res, err := p.Run(root)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Nodes, want) {
				t.Errorf("%s %+v: Run %v, spec %v", q, opts, res.Nodes, want)
			}
			// A limit past every result drains the cursor.
			for _, k := range []int{math.MaxInt, 1, 3} {
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
}

// climbsOf returns a plan's climb semijoins.
func climbsOf(p *Plan) []*semiJoinOp {
	var out []*semiJoinOp
	for _, o := range p.ops {
		if sj, ok := o.(*semiJoinOp); ok && !sj.a.Partitioning() {
			out = append(out, sj)
		}
	}
	return out
}

// TestClimbCursorDirection: a cursor sweeps a climb whose fragment is no
// larger than its compile-time input bound and seeks otherwise, under
// NoReorder too. After a sweep, the join below has scanned at most the
// certified nodes plus one window.
func TestClimbCursorDirection(t *testing.T) {
	d := shredString(t, climbXML())
	env := NewEnv(d)
	root := []int32{d.Root()}
	sweeps := map[string]bool{}
	for _, q := range climbShapes {
		for _, opts := range []*Options{nil, {NoReorder: true}} {
			p := compileQuery(t, env, q, opts)
			lr, err := p.RunLimit(context.Background(), root, math.MaxInt)
			if err != nil {
				t.Fatal(err)
			}
			for _, sj := range climbsOf(p) {
				ost := lr.ops[sj.opID()]
				want := probeInputSeek
				if int64(ost.fragSize) <= sj.est.In {
					want = probeFragSweep
					sweeps[q] = true
				}
				if ost.probeDir != want {
					t.Errorf("%s %+v: %s cursor probeDir %d (fragment %d, input bound %d), want %d",
						q, opts, sj.label(), ost.probeDir, ost.fragSize, sj.est.In, want)
				}
			}
		}
	}
	for _, q := range []string{"//p[v > 230]", "//p[v >= 0][a/b]", "//*[x]", "//*[text()]"} {
		if !sweeps[q] {
			t.Errorf("%s: no climb swept", q)
		}
	}

	// The //p join below a sweep seeks to each certified p and stops
	// after the last: the first nine p elements, and the nine last with
	// the 22 nested ones.
	for _, q := range []string{"//p[v < 9]", "//p[v > 230]"} {
		p := compileQuery(t, env, q, nil)
		sj := climbsOf(p)[0]
		lr, err := p.RunLimit(context.Background(), root, math.MaxInt)
		if err != nil {
			t.Fatal(err)
		}
		if dir := lr.ops[sj.opID()].probeDir; dir != probeFragSweep {
			t.Fatalf("%s: cursor probeDir %d, want a sweep", q, dir)
		}
		cert := sj.certified(d, nil)
		if scanned := lr.Steps[0].Core.Scanned; scanned > int64(len(cert)+execBatchSize) {
			t.Errorf("%s: the join below the sweep scanned %d, certified %d", q, scanned, len(cert))
		}
	}
}

// TestClimbConcurrentFaces: one prepared plan per shape, run by eight
// goroutines through Plan.Run and cursor drains at once, shares one
// certified set and returns the same nodes on every execution (run
// under -race).
func TestClimbConcurrentFaces(t *testing.T) {
	d := shredString(t, climbXML())
	env := NewEnv(d)
	root := []int32{d.Root()}
	for _, q := range climbShapes {
		p := compileQuery(t, env, q, nil)
		want := run(t, env, q, &Options{NoReorder: true})
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					var got []int32
					if (g+i)%2 == 0 {
						res, err := p.Run(root)
						if err != nil {
							errs <- err.Error()
							return
						}
						got = res.Nodes
					} else {
						lr, err := p.RunLimit(context.Background(), root, math.MaxInt)
						if err != nil {
							errs <- err.Error()
							return
						}
						got = lr.Nodes
					}
					if !slices.Equal(got, want) {
						errs <- fmt.Sprintf("%s: goroutine %d got %v, want %v", q, g, got, want)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}
