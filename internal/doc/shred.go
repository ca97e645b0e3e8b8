package doc

import (
	"fmt"
	"io"
	"strings"
)

// ShredOption configures Shred / ShredCollection.
type ShredOption func(*shredConfig)

type shredConfig struct {
	keepValues bool
	keepSpace  bool
	dict       *Dict
}

// shredWithoutValues drops node string values during shredding.
func shredWithoutValues() ShredOption {
	return func(c *shredConfig) { c.keepValues = false }
}

// shredKeepWhitespace retains whitespace-only text nodes. By default
// they are dropped (the usual setting for data-centric XML such as the
// XMark documents of the paper's evaluation).
func shredKeepWhitespace() ShredOption {
	return func(c *shredConfig) { c.keepSpace = true }
}

// shredWithDict interns names into an existing dictionary.
func shredWithDict(d *Dict) ShredOption {
	return func(c *shredConfig) { c.dict = d }
}

// Shred parses one XML document from r and loads it into the pre/post
// plane. This is the "document loading" step of the paper (§2.1): one
// sequential pass with a stack, the resulting table group pre-sorted by
// construction and h computed on the fly. The input is read by the
// package's own scanner (see scanner for the XML it accepts), which
// writes names through the dictionary and character data straight into
// the document's value arena.
func Shred(r io.Reader, opts ...ShredOption) (*Document, error) {
	return shredAll(feed, []io.Reader{r}, false, opts)
}

// ShredCollection parses several XML documents and gathers them under a
// virtual root node, so that a single plane (and a single B-tree, as the
// paper notes) serves the whole collection.
func ShredCollection(readers []io.Reader, opts ...ShredOption) (*Document, error) {
	return shredAll(feed, readers, true, opts)
}

// shredAll builds one document from the given inputs, each streamed
// into the builder by feed (the scanner; the tests also pass its
// encoding/xml oracle).
func shredAll(feed func(*Builder, io.Reader, shredConfig) error, readers []io.Reader, collection bool, opts []ShredOption) (*Document, error) {
	cfg := shredConfig{keepValues: true}
	for _, o := range opts {
		o(&cfg)
	}
	var bopts []BuilderOption
	if collection {
		bopts = append(bopts, WithVirtualRoot())
	}
	if !cfg.keepValues {
		bopts = append(bopts, WithoutValues())
	}
	if cfg.dict != nil {
		bopts = append(bopts, WithDict(cfg.dict))
	}
	b := NewBuilder(bopts...)
	for i, r := range readers {
		if err := feed(b, r, cfg); err != nil {
			if collection {
				err = fmt.Errorf("document %d: %w", i, err)
			}
			return nil, err
		}
	}
	return b.Done()
}

// ShredString is a convenience wrapper around Shred for literals/tests.
func ShredString(s string, opts ...ShredOption) (*Document, error) {
	return Shred(strings.NewReader(s), opts...)
}

// feed scans one document into the builder.
func feed(b *Builder, r io.Reader, cfg shredConfig) error {
	s := scanner{r: r, b: b, keepSpace: cfg.keepSpace, buf: make([]byte, 1<<16)}
	return s.run()
}
