// Package colio moves the fixed-width columns and length-prefixed
// string records of the SCJ file format between a bufio window and
// their in-memory slices: little-endian words are decoded from the
// reader's buffer straight into the column and encoded straight into
// the writer's, with no staging copy. internal/doc, internal/index and
// internal/vindex share this one pair of helpers per element width.
//
// Every read is bounded by what the stream has actually delivered: a
// forged count on a truncated stream fails after allocating at most
// one chunk (or twice the entries already read), never the gigabytes
// the count asks for.
package colio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// chunk is the allocation step, in elements, of a column read.
const chunk = 1 << 20

// BufSize is the window every SCJ reader and writer uses. A
// bufio.Reader or Writer of at least this size passes through
// Reader/Writer unwrapped.
const BufSize = 1 << 16

// Reader returns r itself when it is already a large enough
// bufio.Reader, so the sections of one file share one window.
func Reader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, BufSize) }

// Writer is Reader for the write side; callers Flush what they wrote.
func Writer(w io.Writer) *bufio.Writer { return bufio.NewWriterSize(w, BufSize) }

// grow returns col with room for at least one more element of the n
// expected, allocating no more than max(chunk, 2·len(col)) in total.
func grow[T any](col []T, n int) []T {
	if len(col) < cap(col) {
		return col
	}
	next := make([]T, len(col), min(n, max(chunk, 2*len(col))))
	copy(next, col)
	return next
}

// eof turns the io.EOF of a short column into io.ErrUnexpectedEOF.
func eof(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadWords reads n little-endian 32-bit words.
func ReadWords[T ~int32 | ~uint32](br *bufio.Reader, n int) ([]T, error) {
	var col []T
	for len(col) < n {
		col = grow(col, n)
		want := min(cap(col)-len(col), br.Size()/4)
		win, err := br.Peek(4 * want)
		if err != nil {
			return nil, eof(err)
		}
		part := col[len(col) : len(col)+want]
		for i := range part {
			part[i] = T(binary.LittleEndian.Uint32(win[4*i:]))
		}
		col = col[:len(col)+want]
		br.Discard(len(win)) // cannot fail: the bytes were just peeked
	}
	return col, nil
}

// ReadUint32 reads one little-endian word.
func ReadUint32(br *bufio.Reader) (uint32, error) {
	win, err := br.Peek(4)
	if err != nil {
		return 0, eof(err)
	}
	v := binary.LittleEndian.Uint32(win)
	br.Discard(4) // cannot fail: the bytes were just peeked
	return v, nil
}

// ReadBytes reads a column of n one-byte elements.
func ReadBytes[T ~uint8](br *bufio.Reader, n int) ([]T, error) {
	var col []T
	for len(col) < n {
		col = grow(col, n)
		win, err := br.Peek(min(cap(col)-len(col), br.Size()))
		if err != nil {
			return nil, eof(err)
		}
		for _, b := range win {
			col = append(col, T(b))
		}
		br.Discard(len(win)) // cannot fail: the bytes were just peeked
	}
	return col, nil
}

// AppendRecord reads one `len u32 | bytes` record and appends its bytes
// to dst, which grows only as the stream delivers. Records longer than
// maxLen are an error.
func AppendRecord(br *bufio.Reader, dst []byte, maxLen uint32) ([]byte, error) {
	n, err := ReadUint32(br)
	if err != nil {
		return dst, err
	}
	if n > maxLen {
		return dst, fmt.Errorf("string record of %d bytes exceeds %d", n, maxLen)
	}
	for rem := int(n); rem > 0; {
		win, err := br.Peek(min(rem, br.Size()))
		if err != nil {
			return dst, eof(err)
		}
		dst = append(dst, win...)
		rem -= len(win)
		br.Discard(len(win)) // cannot fail: the bytes were just peeked
	}
	return dst, nil
}

// ReadRecords reads count records into one arena: record i is
// text[off[i]:off[i+1]]. The offsets are allocated whole — callers
// bound count by data the stream has already delivered — the arena
// grows as the records arrive, and more than 4 GiB of them is an error.
func ReadRecords(br *bufio.Reader, count int, maxLen uint32) (off []uint32, text []byte, err error) {
	off = make([]uint32, 1, count+1)
	for len(off) <= count {
		if _, err := br.Peek(4); err != nil {
			return nil, nil, eof(err)
		}
		win, _ := br.Peek(br.Buffered()) // cannot fail: it asks for what is there
		used := 0
		for len(off) <= count && used+4 <= len(win) {
			n := binary.LittleEndian.Uint32(win[used:])
			if n > maxLen || uint64(used)+4+uint64(n) > uint64(len(win)) {
				break
			}
			text = append(text, win[used+4:used+4+int(n)]...)
			off = append(off, uint32(len(text)))
			used += 4 + int(n)
		}
		br.Discard(used) // cannot fail: the bytes were just peeked
		if used == 0 {
			// Too long for the cap, or for what the window holds now.
			if text, err = AppendRecord(br, text, maxLen); err != nil {
				return nil, nil, err
			}
			off = append(off, uint32(len(text)))
		}
		if uint64(len(text)) > math.MaxUint32 {
			return nil, nil, fmt.Errorf("more than 4 GiB of string records")
		}
	}
	return off, text, nil
}

// WriteWords writes col as little-endian 32-bit words.
func WriteWords[T ~int32 | ~uint32](bw *bufio.Writer, col []T) error {
	for len(col) > 0 {
		if bw.Available() < 4 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		buf := bw.AvailableBuffer()
		k := min(len(col), cap(buf)/4)
		for _, v := range col[:k] {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		col = col[k:]
	}
	return nil
}

// WriteUint32 writes the given words, one after the other.
func WriteUint32(bw *bufio.Writer, vs ...uint32) error {
	return WriteWords(bw, vs)
}

// WriteBytes writes a column of one-byte elements.
func WriteBytes[T ~uint8](bw *bufio.Writer, col []T) error {
	for len(col) > 0 {
		if bw.Available() == 0 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		buf := bw.AvailableBuffer()
		k := min(len(col), cap(buf))
		for _, v := range col[:k] {
			buf = append(buf, byte(v))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		col = col[k:]
	}
	return nil
}

// WriteRecord writes one `len u32 | bytes` record.
func WriteRecord(bw *bufio.Writer, s string) error {
	if err := WriteUint32(bw, uint32(len(s))); err != nil {
		return err
	}
	_, err := bw.WriteString(s)
	return err
}
