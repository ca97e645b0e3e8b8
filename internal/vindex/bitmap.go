package vindex

import (
	"math/bits"
	"sync"
)

// bitmap is a set of pre ranks held as one bit per node of the
// document. Pre ranks are dense — the encoding's pre column is a void
// head — so reading the words in order hands a set back in document
// order without a comparison: m members cost O(m + n/64), where copying
// and sorting them costs O(m log m).
type bitmap struct {
	words []uint64
}

// bitmaps pools cleared bitmaps. A bitmap keeps the capacity of the
// largest document it has served, and every word up to that capacity is
// zero while it sits in the pool.
var bitmaps sync.Pool

// acquireBitmap returns a pooled bitmap over the pre ranks [0, n) that
// holds exactly pres.
func acquireBitmap(n int, pres []int32) *bitmap {
	b, _ := bitmaps.Get().(*bitmap)
	if b == nil {
		b = new(bitmap)
	}
	words := (n + 63) >> 6
	if cap(b.words) < words {
		b.words = make([]uint64, words)
	}
	b.words = b.words[:words]
	b.set(pres)
	return b
}

// set adds pres to the bitmap.
func (b *bitmap) set(pres []int32) {
	for _, v := range pres {
		b.words[uint32(v)>>6] |= 1 << (uint32(v) & 63)
	}
}

// appendTo appends the members keep accepts (all of them when keep is
// nil) to dst in ascending order.
func (b *bitmap) appendTo(dst []int32, keep func(v int32) bool) []int32 {
	for w, word := range b.words {
		for ; word != 0; word &= word - 1 {
			if v := int32(w<<6 | bits.TrailingZeros64(word)); keep == nil || keep(v) {
				dst = append(dst, v)
			}
		}
	}
	return dst
}

// release clears the bitmap and returns it to the pool.
func (b *bitmap) release() {
	clear(b.words)
	bitmaps.Put(b)
}

// Order appends to dst, in document order, the members of pres —
// distinct pre ranks of an n-node document — that keep accepts (all of
// them when keep is nil), and returns the extended slice. It reads the
// bitmap words in pre order, so keep sees ascending ranks. dst may share
// pres's array: pres is read whole before the first append.
func Order(dst, pres []int32, n int, keep func(v int32) bool) []int32 {
	b := acquireBitmap(n, pres)
	dst = b.appendTo(dst, keep)
	b.release()
	return dst
}

// Intersect appends to dst the members of pres — distinct pre ranks of
// an n-node document — that also occur in list, a pre-sorted node list,
// and returns the extended slice, in document order. It costs one bit
// set per member of pres and one bit read per entry of list, and reads
// nothing else: no comparison, no column. dst may share pres's array.
func Intersect(dst, pres, list []int32, n int) []int32 {
	b := acquireBitmap(n, pres)
	for _, v := range list {
		if b.words[uint32(v)>>6]>>(uint32(v)&63)&1 != 0 {
			dst = append(dst, v)
		}
	}
	b.release()
	return dst
}
