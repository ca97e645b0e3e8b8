package plan

// Tests of the streaming child and attribute steps (childCursor): every
// face against the reference evaluator over nested and flat contexts,
// under seeking consumers, and shared by concurrent executions; what a
// limit reads and what a drain allocates.

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"

	"staircase/internal/axis"
	"staircase/internal/xmark"
)

// childXML nests a under a and b under b, and holds elements with no
// attribute, with only attributes (x) and with both, text, a comment and
// a processing instruction.
const childXML = `<r><a k="1"><b><c/><b><c k="2">t</c></b></b><b j="3" k="4"/><c/></a>` +
	`<a><x k="5"/><x j="6" k="7"/><b><a><b><c>u</c><c/></b></a></b></a><?pi x?><!--c--><x/></r>`

// childShapes run child and attribute steps over nested contexts (//*,
// //a//b), flat ones, attribute-free and attribute-only nodes, an empty
// context, chains of child steps and semijoins above a child step.
var childShapes = []string{
	"//*/*",
	"//*/@*",
	"//a//b/c",
	"//b/@*",
	"//b/@k",
	"//x/*",
	"//x/@*",
	"//c/@*",
	"//nosuch/*",
	"//nosuch/@*",
	"//*/node()",
	"//a/b/c/@k",
	"/*/*/*",
	"//a/b[c]",
	"//*/*[c]",
	"//*/*[descendant::c]",
	"//*/*[following::x]",
}

// TestChildStepFacesMatchSpec runs every shape through Plan.Run, a
// cursor drain and RunLimit(1, 3, 17) under four option sets, against
// spec.EvalQuery, and requires a semijoin above a child step among them.
func TestChildStepFacesMatchSpec(t *testing.T) {
	d := shredString(t, childXML)
	env := NewEnv(d)
	root := []int32{d.Root()}
	semiOverChild := false
	for _, q := range childShapes {
		want := specRoot(t, d, q)
		for _, opts := range []*Options{nil, {NoIndex: true}, {Pushdown: PushNever}, {NoReorder: true}} {
			p := compileQuery(t, env, q, opts)
			for _, o := range p.ops {
				if sj, ok := o.(*semiJoinOp); ok {
					if s, ok := sj.in.(*axisStepOp); ok && s.a == axis.Child {
						semiOverChild = true
					}
				}
			}
			res, err := p.Run(root)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Nodes, want) {
				t.Errorf("%s %+v: Run %v, spec %v", q, opts, res.Nodes, want)
			}
			if got := drainCursor(t, p, 0); !slices.Equal(got, want) {
				t.Errorf("%s %+v: cursor %v, spec %v", q, opts, got, want)
			}
			for _, k := range []int{1, 3, 17} {
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
	if !semiOverChild {
		t.Error("no shape puts a semijoin above a child step")
	}
}

// TestChildStepSeek seeks a plan's cursor before its first batch to
// every node of the document: the drained nodes at or past the seek are
// the reference result's.
func TestChildStepSeek(t *testing.T) {
	d := shredString(t, childXML)
	env := NewEnv(d)
	for _, q := range childShapes {
		want := specRoot(t, d, q)
		p := compileQuery(t, env, q, nil)
		for s := int32(0); int(s) <= d.Size(); s++ {
			got := drainCursor(t, p, s)
			got = got[searchNodes(got, s):]
			if w := want[searchNodes(want, s):]; !slices.Equal(got, w) {
				t.Errorf("%s, seek %d: cursor %v, spec %v", q, s, got, w)
			}
		}
	}
}

// drainCursor drains p's cursor from the document root, seeking to seek
// first.
func drainCursor(t testing.TB, p *Plan, seek int32) []int32 {
	t.Helper()
	cur, err := p.CursorRoot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	cur.Seek(seek)
	var out []int32
	for {
		b, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return out
		}
		out = append(out, b...)
	}
}

// TestChildCursorDrainAllocation: a warm cursor drain of a chain of
// child steps allocates its cursors and batch buffers, nothing per
// result node, so it allocates the same bytes on a document twice the
// size.
func TestChildCursorDrainAllocation(t *testing.T) {
	const q = "/descendant::open_auction/child::bidder/child::*"
	var bytes [2]uint64
	var results [2]int
	for i, mb := range []float64{1, 2} {
		d, err := xmark.Generate(xmark.Config{SizeMB: mb, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		p := compileQuery(t, NewEnv(d), q, nil)
		bytes[i] = warmBytes(func() {
			cur, err := p.CursorRoot(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			results[i] = 0
			for b, err := cur.Next(); b != nil || err != nil; b, err = cur.Next() {
				if err != nil {
					t.Fatal(err)
				}
				results[i] += len(b)
			}
		})
	}
	t.Logf("%s: %d B per warm drain of %d nodes, %d B of %d nodes", q, bytes[0], results[0], bytes[1], results[1])
	if results[1] < 3*results[0]/2 {
		t.Fatalf("the larger document holds %d results, the smaller %d", results[1], results[0])
	}
	if bytes[1] > bytes[0]+1024 {
		t.Errorf("a warm drain allocates %d B at twice the size, %d B at the size: want within 1 KB", bytes[1], bytes[0])
	}
}

// warmBytes reports the bytes one call of f allocates, averaged over 20
// calls after a warm-up, on one P as testing.AllocsPerRun measures.
func warmBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 20 {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / 20
}

// TestChildCursorConcurrent: eight goroutines share child-step plans —
// one reading a lent index span, one a streamed input, one chaining child
// steps — on every face at once. Under -race a write into shared state
// shows as a race.
func TestChildCursorConcurrent(t *testing.T) {
	d := lendDoc(t)
	env := NewEnv(d)
	type job struct {
		p    *Plan
		want []int32
		q    string
	}
	var jobs []job
	for _, c := range []struct {
		q    string
		opts *Options
		lent bool // the root step's input lends an index span
	}{
		{"/descendant::open_auction/child::bidder", nil, true},
		{"/descendant::open_auction/child::bidder", &Options{NoIndex: true}, false},
		{"/descendant::open_auction/child::bidder/child::*", nil, false},
		{"//bidder/@*", nil, false},
	} {
		p := compileQuery(t, env, c.q, c.opts)
		if lent := lendsSpan(&execCtx{opts: &p.opts}, p.root.(*axisStepOp).in); lent != c.lent {
			t.Fatalf("%s %+v: the input lends a span: %v, want %v", c.q, c.opts, lent, c.lent)
		}
		jobs = append(jobs, job{p, specRoot(t, d, c.q), c.q})
	}
	before := indexHashes(d)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				j := jobs[(i+g)%len(jobs)]
				runFaces(t, j.p, j.want, j.q)
			}
		}()
	}
	wg.Wait()
	if !slices.Equal(indexHashes(d), before) {
		t.Error("a concurrent execution wrote into the tag/kind index")
	}
}
