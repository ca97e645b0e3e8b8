package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"staircase"
)

// Corpus sizes in generator megabytes. big is several times this
// box's 4 MB L2 in per-node columns (about 683 000 nodes, 11.6 MB of
// columns); small fits it (about 172 000 nodes, 2.9 MB). The smoke
// sizes only have to keep the two classes apart.
const (
	bigMB        = 32
	smallMB      = 8
	smokeBigMB   = 4
	smokeSmallMB = 4
)

// corpus is one generated document: its XML text and, for the server
// workloads, its SCJ2 file. Everything derives from (sizeMB, seed).
type corpus struct {
	sizeMB float64
	seed   int64
	xml    []byte
	// people and auctions are the generator's entity counts, the range
	// of the ids the id look-ups draw from.
	people, auctions int
	// scj2 is the path of the binary encoding (columns plus both
	// indexes); empty until writeSCJ2.
	scj2      string
	scj2Bytes int64
}

func newCorpus(sizeMB float64, seed int64) (*corpus, error) {
	var buf bytes.Buffer
	if err := staircase.WriteXMark(&buf, sizeMB, seed); err != nil {
		return nil, fmt.Errorf("corpus: generate %v MB: %w", sizeMB, err)
	}
	return &corpus{
		sizeMB:   sizeMB,
		seed:     seed,
		xml:      buf.Bytes(),
		people:   int(sizeMB * 255),
		auctions: int(sizeMB * 120),
	}, nil
}

// load shreds the XML text.
func (c *corpus) load() (*staircase.Document, error) {
	return staircase.Load(bytes.NewReader(c.xml))
}

// writeSCJ2 serializes d into dir as the file the catalog registers.
func (c *corpus) writeSCJ2(d *staircase.Document, dir string) error {
	c.scj2 = filepath.Join(dir, fmt.Sprintf("xmark-%v-%d.scj2", c.sizeMB, c.seed))
	f, err := os.Create(c.scj2)
	if err != nil {
		return err
	}
	if err := d.WriteBinary(f); err != nil {
		f.Close()
		return fmt.Errorf("corpus: write %s: %w", c.scj2, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, err := os.Stat(c.scj2)
	if err != nil {
		return err
	}
	c.scj2Bytes = st.Size()
	return nil
}

// countingWriter measures an encoding's size without keeping it.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
