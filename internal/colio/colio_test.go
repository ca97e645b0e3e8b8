package colio

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
)

type kind uint8

// TestRoundTrip writes columns and records of sizes around the window
// and the allocation chunk and reads them back from one stream.
func TestRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 3, BufSize/4 - 1, BufSize / 4, BufSize/4 + 1, BufSize + 7, chunk, chunk + 5, 2*chunk + 1} {
		words, signed, kinds := make([]uint32, n), make([]int32, n), make([]kind, n)
		for i := range words {
			words[i], signed[i], kinds[i] = uint32(i)*2654435761, int32(i)-int32(n/2), kind(i)
		}
		record := strings.Repeat("0123456789abcdef", n%(BufSize/4))
		var buf bytes.Buffer
		bw := Writer(&buf)
		for _, err := range []error{
			WriteUint32(bw, uint32(n), 7), WriteWords(bw, words), WriteBytes(bw, kinds),
			WriteRecord(bw, record), WriteRecord(bw, ""), WriteWords(bw, signed), bw.Flush(),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		if want := 8 + 4*n + n + 4 + len(record) + 4 + 4*n; buf.Len() != want {
			t.Fatalf("n=%d: wrote %d bytes, want %d", n, buf.Len(), want)
		}
		br := Reader(&buf)
		if br2 := Reader(br); br2 != br {
			t.Fatal("Reader wrapped a reader that was large enough")
		}
		hdr, err := ReadWords[uint32](br, 2)
		if err != nil || hdr[0] != uint32(n) || hdr[1] != 7 {
			t.Fatalf("n=%d: header %v, %v", n, hdr, err)
		}
		gotWords, err := ReadWords[uint32](br, n)
		if err != nil || !slices.Equal(gotWords, words) || cap(gotWords) != n {
			t.Fatalf("n=%d: uint32 column differs (err %v, cap %d)", n, err, cap(gotWords))
		}
		gotKinds, err := ReadBytes[kind](br, n)
		if err != nil || !slices.Equal(gotKinds, kinds) {
			t.Fatalf("n=%d: byte column differs (err %v)", n, err)
		}
		text, err := AppendRecord(br, []byte("x"), uint32(len(record)))
		if err != nil || string(text) != "x"+record {
			t.Fatalf("n=%d: record differs (err %v)", n, err)
		}
		if text, err = AppendRecord(br, text, 0); err != nil || string(text) != "x"+record {
			t.Fatalf("n=%d: empty record changed the arena (err %v)", n, err)
		}
		gotSigned, err := ReadWords[int32](br, n)
		if err != nil || !slices.Equal(gotSigned, signed) {
			t.Fatalf("n=%d: int32 column differs (err %v)", n, err)
		}
		if _, err := ReadUint32(br); err != io.ErrUnexpectedEOF {
			t.Fatalf("n=%d: read past the end: %v", n, err)
		}
	}
}

// TestForgedCountsFailCheaply: a count or length the stream cannot back
// is an error after an allocation bounded by what did arrive, never by
// the number claimed.
func TestForgedCountsFailCheaply(t *testing.T) {
	stream := make([]byte, 3*chunk)                              // 0.75 of a chunk of words
	copy(stream[len(stream)-6:], []byte{0xff, 0xff, 0xff, 0x0f}) // a record of 256 MB, 2 bytes of it there
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, read := range []func(*bufio.Reader) error{
		func(br *bufio.Reader) error { _, err := ReadWords[int32](br, 1<<30); return err },
		func(br *bufio.Reader) error { _, err := ReadBytes[kind](br, 1<<30); return err },
		func(br *bufio.Reader) error {
			br.Discard(len(stream) - 6) // cannot fail: the stream is longer
			_, err := AppendRecord(br, nil, 1<<28)
			return err
		},
	} {
		if err := read(Reader(bytes.NewReader(stream))); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("short stream: %v, want unexpected EOF", err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 16*chunk {
		t.Errorf("short streams cost %d bytes of allocation, want at most %d", got, 16*chunk)
	}
	binaryLen := []byte{0xff, 0xff, 0xff, 0x7f, 'x'}
	if _, err := AppendRecord(Reader(bytes.NewReader(binaryLen)), nil, 1<<28); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("record longer than the cap: %v, want a length error", err)
	}
}

// TestReadRecords reads a run of records — empty ones, short ones, one
// longer than the window — into one arena, and refuses a run that is
// cut short or holds a record over the cap.
func TestReadRecords(t *testing.T) {
	records := []string{"", "a", "", strings.Repeat("window", BufSize/3), "tail", ""}
	for i := 0; i < 3*BufSize/8; i++ {
		records = append(records, strings.Repeat("r", i%7))
	}
	var buf bytes.Buffer
	bw := Writer(&buf)
	for _, r := range records {
		if err := WriteRecord(bw, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteUint32(bw, 42); err != nil || bw.Flush() != nil {
		t.Fatal("write failed")
	}
	br := Reader(bytes.NewReader(buf.Bytes()))
	off, text, err := ReadRecords(br, len(records), 2*BufSize)
	if err != nil || len(off) != len(records)+1 {
		t.Fatalf("ReadRecords: %d offsets, err %v", len(off), err)
	}
	for i, want := range records {
		if got := string(text[off[i]:off[i+1]]); got != want {
			t.Fatalf("record %d = %q, want %q", i, got, want)
		}
	}
	if v, err := ReadUint32(br); err != nil || v != 42 {
		t.Fatalf("ReadRecords read past its records: next word %d, %v", v, err)
	}
	if _, _, err := ReadRecords(Reader(bytes.NewReader(buf.Bytes())), len(records), 100); err == nil {
		t.Error("a record over the cap was accepted")
	}
	if _, _, err := ReadRecords(Reader(bytes.NewReader(buf.Bytes()[:buf.Len()-9])), len(records), 2*BufSize); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated run: %v, want unexpected EOF", err)
	}
}
