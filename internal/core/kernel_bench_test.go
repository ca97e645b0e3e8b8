package core

import (
	"sync"
	"testing"

	"staircase/internal/axis"
	"staircase/internal/doc"
	"staircase/internal/xmark"
)

// BenchmarkKernelFamilies times one kernel call per sub-benchmark: the
// steps of the repository benchmark's axes_batch and stream_first_k
// scripts that reach a staircase kernel, plus selective ancestor steps,
// name tests and or-self steps of the document kernels, over a 32 MB,
// seed-1 XMark document built once per process. Sub-benchmarks are
// named family/step (doc-* for the document kernels, list-* for the
// node-list kernels) and call only Join and JoinNodeList, or, for a
// step suffixed -drain256 or -first16, NewJoinCursor: drained at
// 256-node batches, or its first 16-node batch only. One binary per
// commit compares kernel bodies across commits:
//
//	go test -c -o parent.test ./internal/core   # at each commit
//	./parent.test -test.run '^$' -test.bench KernelFamilies -test.benchtime 200x
func BenchmarkKernelFamilies(b *testing.B) {
	for _, c := range kernelFamilyCases(b) {
		b.Run(c.name, func(b *testing.B) {
			o := &Options{Variant: SkipEstimate, Emit: c.emit, OrSelf: c.orSelf}
			b.ReportAllocs()
			buf := make([]int32, 0, c.batch)
			for i := 0; i < b.N; i++ {
				var err error
				if c.batch > 0 {
					err = pullCursor(c, o, buf)
				} else if c.list != nil {
					_, err = JoinNodeList(c.d, c.a, c.list, c.ctx, o)
				} else {
					_, err = Join(c.d, c.a, c.ctx, o)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

type kernelFamilyCase struct {
	name   string
	d      *doc.Document
	a      axis.Axis
	ctx    []int32
	list   []int32 // nil: the document kernel
	emit   Emit
	orSelf bool
	batch  int  // > 0: the cursor face, pulled at batches of this size
	first  bool // pull the first batch only
}

// pullCursor runs c's step on the document cursor face: one batch, or
// every batch until the cursor is exhausted.
func pullCursor(c kernelFamilyCase, o *Options, buf []int32) error {
	cur, err := NewJoinCursor(c.d, c.a, SliceSource(c.ctx), o)
	for err == nil {
		var b []int32
		if b, err = cur.Next(buf, 0); b == nil || c.first {
			break
		}
	}
	return err
}

var kernelFamilies struct {
	once  sync.Once
	cases []kernelFamilyCase
	err   error
}

func kernelFamilyCases(b *testing.B) []kernelFamilyCase {
	kernelFamilies.once.Do(func() {
		d, err := xmark.Generate(xmark.Config{SizeMB: 32, Seed: 1})
		if err != nil {
			kernelFamilies.err = err
			return
		}
		ix := d.TagIndex()
		tag := func(name string) []int32 {
			id, _ := d.Names().Lookup(name)
			return ix.Tag(id)
		}
		text := ix.KindList(uint8(doc.Text))
		itemText, _ := Join(d, axis.Descendant, tag("item"), &Options{Variant: SkipEstimate, Emit: Emit{Kinds: 1 << doc.Text}})
		root := []int32{d.Root()}
		named := func(name string) Emit {
			id, _ := d.Names().Lookup(name)
			return Emit{Kinds: 1 << doc.Elem, ByName: true, Name: id}
		}
		step := func(family, from string, a axis.Axis, to string) kernelFamilyCase {
			return kernelFamilyCase{name: family + "/" + from + "-" + to, d: d, a: a, ctx: tag(from), list: tag(to)}
		}
		kernelFamilies.cases = []kernelFamilyCase{
			{name: "doc-descendant/root-node", d: d, a: axis.Descendant, ctx: root},
			{name: "doc-descendant/root-or-self-node", d: d, a: axis.Descendant, ctx: root, orSelf: true},
			{name: "doc-descendant/item-text", d: d, a: axis.Descendant, ctx: tag("item"), emit: Emit{Kinds: 1 << doc.Text}},
			{name: "doc-descendant/person-or-self-node", d: d, a: axis.Descendant, ctx: tag("person"), orSelf: true},
			{name: "doc-ancestor/text-node", d: d, a: axis.Ancestor, ctx: text},
			{name: "doc-ancestor/text-node-drain256", d: d, a: axis.Ancestor, ctx: text, batch: 256},
			{name: "doc-ancestor/text-node-first16", d: d, a: axis.Ancestor, ctx: text, batch: 16, first: true},
			{name: "doc-ancestor/text-or-self-node", d: d, a: axis.Ancestor, ctx: text, orSelf: true},
			{name: "doc-ancestor/text-listitem", d: d, a: axis.Ancestor, ctx: text, emit: named("listitem")},
			{name: "doc-ancestor/keyword-node", d: d, a: axis.Ancestor, ctx: tag("keyword")},
			{name: "doc-ancestor/item-elem", d: d, a: axis.Ancestor, ctx: tag("item"), emit: Emit{Kinds: 1 << doc.Elem}},
			{name: "doc-ancestor/increase-bidder", d: d, a: axis.Ancestor, ctx: tag("increase"), emit: named("bidder")},
			{name: "doc-following/category-node", d: d, a: axis.Following, ctx: tag("category")},
			{name: "doc-preceding/person-elem", d: d, a: axis.Preceding, ctx: tag("person"), emit: Emit{Kinds: 1 << doc.Elem}},
			step("list-descendant", "profile", axis.Descendant, "education"),
			step("list-descendant", "open_auction", axis.Descendant, "bidder"),
			step("list-descendant", "bidder", axis.Descendant, "increase"),
			step("list-ancestor", "keyword", axis.Ancestor, "listitem"),
			step("list-ancestor", "increase", axis.Ancestor, "bidder"),
			step("list-ancestor", "interest", axis.Ancestor, "person"),
			step("list-following", "seller", axis.Following, "bidder"),
			{name: "list-following/item-text-keyword", d: d, a: axis.Following, ctx: itemText, list: tag("keyword")},
			step("list-preceding", "education", axis.Preceding, "interest"),
			step("list-preceding", "closed_auction", axis.Preceding, "seller"),
			{name: "list-preceding/keyword-text", d: d, a: axis.Preceding, ctx: tag("keyword"), list: text},
		}
	})
	if kernelFamilies.err != nil {
		b.Fatal(kernelFamilies.err)
	}
	return kernelFamilies.cases
}
