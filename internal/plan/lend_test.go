package plan

// Tests of the lent first step: a document-node step over a pushed
// fragment hands a consumer that only reads its input (a StaircaseJoin
// or an AxisStep) the index list's own subslice, and everyone else one
// copy. Nothing may ever write into the index, and Result.Nodes is
// always the caller's.

import (
	"context"
	"slices"
	"sync"
	"testing"

	"staircase/internal/doc"
	"staircase/internal/spec"
	"staircase/internal/xmark"
	"staircase/internal/xpath"
)

// lendShapes puts a first step over a pushed fragment under every
// consumer kind. lent is whether the first step lends its fragment.
var lendShapes = []struct {
	q    string
	lent bool
}{
	// StaircaseJoin, the or-self variants included.
	{"/descendant::open_auction/descendant::bidder", true},
	{"/descendant::increase/ancestor::bidder", true},
	{"/descendant::text()/ancestor::node()", true},
	{"/descendant::keyword/following::bidder", true},
	{"/descendant::bidder/preceding::keyword", true},
	{"/descendant-or-self::bidder/descendant-or-self::increase", true},
	{"/descendant::increase/ancestor-or-self::node()", true},
	// AxisStep: child, parent, self and a sibling axis.
	{"/descendant::bidder/child::increase", true},
	{"/descendant::increase/parent::bidder", true},
	{"/descendant::bidder/self::bidder", true},
	{"/descendant::bidder/self::*", true},
	{"/descendant::bidder/following-sibling::*", true},
	// PredFilter, SemiJoin (staircase seek and sweep, climb sweep) and
	// PosFilter filter or rebuild what they receive.
	{"/descendant::open_auction[not(bidder)]", false},
	{"/descendant::bidder[increase != 3]", false},
	{"/descendant::open_auction[descendant::text()]", false},
	{"/descendant::increase[ancestor::open_auction]", false},
	{"/descendant::bidder[increase]", false},
	{"/descendant::bidder[2]", false},
	{"/descendant::open_auction/descendant::bidder[1]", false},
	// Merge, and the plan's root.
	{"/descendant::bidder | /descendant::increase", false},
	{"/descendant::keyword | /descendant::nosuch", false},
	{"/descendant::keyword", false},
	{"/descendant::text()", false},
}

// lendOptions are the option sets the shapes run under: the index
// (default), column-scan fragments memoised per plan and forced
// pushdown.
var lendOptions = []*Options{nil, {NoIndex: true}, {Pushdown: PushAlways}}

// lendDoc is a small XMark document with values (the shapes compare
// increase values).
func lendDoc(t testing.TB) *doc.Document {
	t.Helper()
	d, err := xmark.Generate(xmark.Config{SizeMB: 0.5, Seed: 5, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// indexHashes hashes every tag and kind list of the document's index
// (FNV-1a over the entries).
func indexHashes(d *doc.Document) []uint64 {
	ix := d.TagIndex()
	var lists [][]int32
	for id := 0; id < ix.NumTags(); id++ {
		lists = append(lists, ix.Tag(int32(id)))
	}
	for k := 0; k < ix.NumKinds(); k++ {
		lists = append(lists, ix.KindList(uint8(k)))
	}
	hashes := make([]uint64, len(lists))
	for i, l := range lists {
		h := uint64(14695981039346656037)
		for _, v := range l {
			h = (h ^ uint64(uint32(v))) * 1099511628211
		}
		hashes[i] = h
	}
	return hashes
}

// firstJoin returns the plan's document-node join, nil when the first
// step is not one.
func firstJoin(p *Plan) *joinOp {
	for _, o := range p.ops {
		if j, ok := o.(*joinOp); ok && j.docNode {
			return j
		}
	}
	return nil
}

// specRoot evaluates q from the document root with the reference
// evaluator.
func specRoot(t testing.TB, d *doc.Document, q string) []int32 {
	t.Helper()
	pq, err := xpath.ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return spec.EvalQuery(d, pq, []int32{d.Root()})
}

// runFaces runs p through Plan.Run, RunLimit(1) and a cursor drain and
// reports every face that disagrees with want.
func runFaces(t *testing.T, p *Plan, want []int32, label string) {
	root := []int32{p.env.Doc.Root()}
	res, err := p.Run(root)
	if err != nil {
		t.Error(err)
		return
	}
	if !slices.Equal(res.Nodes, want) {
		t.Errorf("%s: Run %d nodes, spec %d", label, len(res.Nodes), len(want))
	}
	lr, err := p.RunLimit(context.Background(), root, 1)
	if err != nil {
		t.Error(err)
		return
	}
	if !slices.Equal(lr.Nodes, want[:min(1, len(want))]) {
		t.Errorf("%s: RunLimit(1) %v, spec starts %v", label, lr.Nodes, want[:min(1, len(want))])
	}
	cur, err := p.Cursor(context.Background(), root)
	if err != nil {
		t.Error(err)
		return
	}
	defer cur.Close()
	var drained []int32
	for {
		b, err := cur.Next()
		if err != nil {
			t.Error(err)
			return
		}
		if b == nil {
			break
		}
		drained = append(drained, b...)
	}
	if !slices.Equal(drained, want) {
		t.Errorf("%s: cursor %d nodes, spec %d", label, len(drained), len(want))
	}
}

func TestLentFragmentStaysIntact(t *testing.T) {
	d := lendDoc(t)
	env := NewEnv(d)
	before := indexHashes(d)
	dirs := map[int8]bool{}
	for _, s := range lendShapes {
		want := specRoot(t, d, s.q)
		if len(want) == 0 {
			t.Fatalf("%s: empty on the fixture", s.q)
		}
		for _, opts := range lendOptions {
			p := compileQuery(t, env, s.q, opts)
			// (A positional first step is a PosFilter, which never lends.)
			if j := firstJoin(p); (j != nil && j.lend) != s.lent {
				t.Errorf("%s: first step lends %v, want %v", s.q, !s.lent, s.lent)
			}
			// Twice: a write into a plan's memoised fragment would show on
			// the second run.
			for range 2 {
				runFaces(t, p, want, s.q)
			}
			res, err := p.RunRoot()
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range p.ops {
				if sj, ok := o.(*semiJoinOp); ok {
					dirs[res.ops[sj.id].probeDir] = true
				}
			}
		}
	}
	if !dirs[probeInputSeek] || !dirs[probeFragSweep] {
		t.Errorf("semijoin directions taken: %v, want seek and sweep", dirs)
	}
	if after := indexHashes(d); !slices.Equal(after, before) {
		t.Error("an execution wrote into the tag/kind index")
	}
}

// TestLentResultIsTheCallers: a plan whose root is a document-node step
// returns a copy, so a caller overwriting Result.Nodes changes neither
// the index nor the next run.
func TestLentResultIsTheCallers(t *testing.T) {
	d := lendDoc(t)
	before := indexHashes(d)
	for _, opts := range lendOptions {
		p := compileQuery(t, NewEnv(d), "/descendant::keyword", opts)
		first, err := p.RunRoot()
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(first.Nodes)
		for i := range first.Nodes {
			first.Nodes[i] = -1
		}
		again, err := p.RunRoot()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(again.Nodes, want) {
			t.Fatalf("%+v: the second run returned %d nodes, %d before", opts, len(again.Nodes), len(want))
		}
	}
	if !slices.Equal(indexHashes(d), before) {
		t.Error("overwriting a result wrote into the tag/kind index")
	}
}

// TestLentFragmentConcurrent: eight goroutines run the lending plans of
// one document on every face at once. Under -race a write into a shared
// index list shows as a race.
func TestLentFragmentConcurrent(t *testing.T) {
	d := lendDoc(t)
	env := NewEnv(d)
	type job struct {
		p    *Plan
		want []int32
		q    string
	}
	var jobs []job
	for _, s := range lendShapes {
		if !s.lent {
			continue
		}
		jobs = append(jobs, job{compileQuery(t, env, s.q, nil), specRoot(t, d, s.q), s.q})
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

// TestAttributeStepPredicatesStayPredFilter pins the precondition the
// semijoin sweep relies on when it joins its input as a node list: a
// predicate on an attribute-axis step compiles to PredFilter, so no
// attribute reaches the node-list kernels.
func TestAttributeStepPredicatesStayPredFilter(t *testing.T) {
	env := NewEnv(shredString(t, `<r><a><b id="1"/><c/></a><b id="2"/><c/></r>`))
	for _, q := range []string{"//@id[ancestor::a]", "//b/@id[following::c]"} {
		p := compileQuery(t, env, q, nil)
		var filters, semijoins int
		for _, o := range p.ops {
			switch o.(type) {
			case *predFilterOp:
				filters++
			case *semiJoinOp:
				semijoins++
			}
		}
		if filters != 1 || semijoins != 0 {
			t.Errorf("%s: %d PredFilter, %d SemiJoin; want the predicate on a PredFilter", q, filters, semijoins)
		}
	}
}
