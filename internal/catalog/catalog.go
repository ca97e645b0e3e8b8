// Package catalog manages a named collection of pre/post encoded
// documents for the query server — the system-catalog layer the paper
// assumes when it talks about the staircase join living *inside* a
// relational DBMS serving many queries.
//
// Each entry names a document source on disk (XML text, or the SCJ1/
// SCJ2 binary formats written by doc.WriteBinary; the format is
// sniffed from the file's magic bytes). Loading is lazy: the first
// Open shreds or deserializes the file, later Opens share the resident
// *doc.Document and its *engine.Engine. Documents are immutable after
// loading, so any number of concurrent readers can evaluate queries
// against one entry without locking — the catalog only synchronises
// lookup, load, and eviction.
//
// Unless disabled with WithoutIndex, every load finishes by ensuring
// the document's shared tag/kind index (doc.TagIndex) is resident —
// deserialized from the SCJ2 index section when present, built with
// one O(n) pass otherwise — so queries never pay a name-column rescan,
// no matter how many engines or reloads the entry sees. The value
// index (doc.ValueIndex, serving comparison and contains() predicates)
// is handled the same way for documents that carry values, unless
// disabled with WithoutValueIndex.
//
// Residency is bounded: when the encoded bytes of loaded documents
// (structural columns plus their tag/kind index) exceed the budget,
// least-recently-used entries with no open handles are evicted
// (dropped; a later Open reloads from the source). Every load bumps
// the entry's generation — result caches key on it so a reload from a
// changed file can never serve stale cached results.
package catalog

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"staircase/internal/doc"
	"staircase/internal/engine"
	"staircase/internal/fault"
)

// ErrUnknownDocument is wrapped by Open when the name is not
// registered, so callers can distinguish "no such document" from load
// failures with errors.Is.
var ErrUnknownDocument = errors.New("unknown document")

// Format identifies a document source encoding.
type Format uint8

const (
	// FormatAuto sniffs the format from the file's first bytes.
	FormatAuto Format = iota
	// FormatXML shreds XML text via doc.Shred.
	FormatXML
	// FormatBinary deserializes the SCJ1/SCJ2 encoding via
	// doc.ReadBinary (an SCJ2 file carries its tag/kind index section).
	FormatBinary
)

// String names the format.
func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatXML:
		return "xml"
	case FormatBinary:
		return "binary"
	default:
		return fmt.Sprintf("Format(%d)", uint8(f))
	}
}

// DocInfo is a point-in-time snapshot of one catalog entry, served by
// the server's GET /docs endpoint.
type DocInfo struct {
	Name        string        `json:"name"`
	Path        string        `json:"path,omitempty"`
	Format      string        `json:"format"`
	Resident    bool          `json:"resident"`
	Pinned      bool          `json:"pinned"`
	Generation  uint64        `json:"generation"`
	Bytes       int64         `json:"bytes,omitempty"`
	ValueBytes  int64         `json:"valueBytes,omitempty"`
	IndexBytes  int64         `json:"indexBytes,omitempty"`
	VIndexBytes int64         `json:"valueIndexBytes,omitempty"`
	Nodes       int           `json:"nodes,omitempty"`
	Height      int32         `json:"height,omitempty"`
	Loads       int64         `json:"loads"`
	Evictions   int64         `json:"evictions"`
	Queries     int64         `json:"queries"`
	EvalTime    time.Duration `json:"evalTimeNs"`
}

// entry is one named document. All mutable fields are guarded by the
// catalog mutex; loadMu only serialises the expensive load itself so a
// slow shred never blocks the whole catalog, and so two concurrent
// Opens of a cold entry load it once.
type entry struct {
	name   string
	pinned bool // added via AddDocument: no source to reload, never evicted

	loadMu sync.Mutex

	// Guarded by Catalog.mu.
	path      string
	format    Format
	d         *doc.Document
	eng       *engine.Engine
	gen       uint64 // bumped on every load
	bytes     int64  // resident footprint: encoding + node values + indexes
	valBytes  int64  // node-value share of bytes
	idxBytes  int64  // tag/kind index share of bytes
	vidxBytes int64  // value index share of bytes
	refs      int
	lastUse   int64
	loads     int64
	evictions int64
	queries   int64
	evalTime  int64 // ns, accumulated via Handle.RecordQuery
}

// Catalog is a set of named documents with lazy loading and bounded
// residency. Safe for concurrent use.
type Catalog struct {
	mu       sync.Mutex
	entries  map[string]*entry
	maxBytes int64 // residency budget; 0 = unbounded
	resident int64
	clock    int64
	noIndex  bool
	noVIndex bool
}

// Option configures a Catalog.
type Option func(*Catalog)

// WithoutIndex disables eager tag/kind index residency: loads skip the
// index build (engines fall back to per-query scans when asked to
// evaluate with engine.Options.NoIndex; a query that does use the
// index still builds it lazily). Ablation/operations knob — the
// xpathd -index=false flag.
func WithoutIndex() Option {
	return func(c *Catalog) { c.noIndex = true }
}

// WithoutValueIndex disables eager value-index residency: loads skip
// the build, so value predicates fall back to per-node evaluation
// unless a query builds the index lazily. Ablation/operations knob —
// the xpathd -value-index=false flag.
func WithoutValueIndex() Option {
	return func(c *Catalog) { c.noVIndex = true }
}

// New returns an empty catalog. maxBytes bounds the total resident
// bytes of loaded documents — structural encoding, node values and both
// indexes (0 = unbounded); entries beyond the budget are evicted
// least-recently-used once unreferenced.
func New(maxBytes int64, opts ...Option) *Catalog {
	c := &Catalog{entries: make(map[string]*entry), maxBytes: maxBytes}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Register adds a named document source without loading it. The format
// is sniffed on first load when FormatAuto.
func (c *Catalog) Register(name, path string, format Format) error {
	if name == "" {
		return fmt.Errorf("catalog: empty document name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[name]; ok {
		return fmt.Errorf("catalog: document %q already registered", name)
	}
	c.entries[name] = &entry{name: name, path: path, format: format}
	return nil
}

// AddDocument registers an already-loaded document under a name. Such
// entries have no on-disk source, so they are pinned: never evicted and
// not counted against the residency budget's reloadable set.
func (c *Catalog) AddDocument(name string, d *doc.Document) error {
	if name == "" {
		return fmt.Errorf("catalog: empty document name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[name]; ok {
		return fmt.Errorf("catalog: document %q already registered", name)
	}
	e := &entry{name: name, pinned: true, d: d, eng: engine.New(d), gen: 1, loads: 1}
	if !c.noIndex {
		d.TagIndex()
	}
	if !c.noVIndex {
		d.ValueIndex()
	}
	e.charge(d)
	c.entries[name] = e
	return nil
}

// charge records the resident footprint of the entry's document: the
// structural encoding, the node values (which EncodedBytes leaves out)
// and whichever indexes are built.
func (e *entry) charge(d *doc.Document) {
	e.valBytes, e.idxBytes, e.vidxBytes = d.ValueBytes(), d.IndexBytes(), d.ValueIndexBytes()
	e.bytes = d.EncodedBytes() + e.valBytes + e.idxBytes + e.vidxBytes
}

// Handle is a reference to a resident document. The document stays
// resident (safe from eviction) until Close.
type Handle struct {
	c *Catalog
	e *entry

	d   *doc.Document
	eng *engine.Engine
	gen uint64

	once sync.Once
}

// Open returns a handle on the named document, loading it if necessary.
// Callers must Close the handle when done.
func (c *Catalog) Open(name string) (*Handle, error) {
	c.mu.Lock()
	e, ok := c.entries[name]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("catalog: %w %q", ErrUnknownDocument, name)
	}
	e.refs++ // pin against eviction before dropping the catalog lock
	c.clock++
	e.lastUse = c.clock
	c.mu.Unlock()

	e.loadMu.Lock()
	c.mu.Lock()
	if e.d == nil {
		path, format := e.path, e.format
		buildIndex := !c.noIndex
		buildVIndex := !c.noVIndex
		c.mu.Unlock()
		d, format, err := safeLoad(path, format, buildIndex, buildVIndex)
		c.mu.Lock()
		if err != nil {
			e.refs--
			c.mu.Unlock()
			e.loadMu.Unlock()
			return nil, fmt.Errorf("catalog: load %q: %w", name, err)
		}
		e.d = d
		e.eng = engine.New(d)
		e.format = format
		e.gen++
		e.loads++
		e.charge(d)
		c.resident += e.bytes
	}
	h := &Handle{c: c, e: e, d: e.d, eng: e.eng, gen: e.gen}
	c.mu.Unlock()
	e.loadMu.Unlock()
	c.evict()
	return h, nil
}

// Document returns the resident document.
func (h *Handle) Document() *doc.Document { return h.d }

// Engine returns the shared evaluation engine over the document (safe
// for concurrent use; pushdown fragments come from the document's
// shared tag/kind index, so engines carry no per-engine caches).
func (h *Handle) Engine() *engine.Engine { return h.eng }

// Name returns the catalog name of the document.
func (h *Handle) Name() string { return h.e.name }

// Generation returns the load generation of the resident document.
// Result-cache keys include it so a reload (after eviction, possibly
// from a changed file) invalidates earlier cached results.
func (h *Handle) Generation() uint64 { return h.gen }

// RecordQuery accounts one query evaluation against the document's
// statistics.
func (h *Handle) RecordQuery(d time.Duration) {
	h.c.mu.Lock()
	h.e.queries++
	h.e.evalTime += int64(d)
	h.c.mu.Unlock()
}

// Close releases the handle. The document stays resident until the
// eviction policy reclaims it.
func (h *Handle) Close() {
	h.once.Do(func() {
		h.c.mu.Lock()
		h.e.refs--
		h.c.mu.Unlock()
		h.c.evict()
	})
}

// evict drops least-recently-used unreferenced entries until resident
// bytes fit the budget. Pinned entries (no source to reload from) are
// never dropped.
func (c *Catalog) evict() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes <= 0 {
		return
	}
	for c.resident > c.maxBytes {
		var victim *entry
		for _, e := range c.entries {
			if e.pinned || e.refs > 0 || e.d == nil {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return // everything left is pinned or in use
		}
		victim.d = nil
		victim.eng = nil
		victim.evictions++
		c.resident -= victim.bytes
		victim.bytes, victim.valBytes, victim.idxBytes, victim.vidxBytes = 0, 0, 0, 0
	}
}

// Names returns the registered document names, sorted.
func (c *Catalog) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.entries))
	for n := range c.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ResidentBytes returns the resident bytes of currently loaded
// documents (structural encoding, node values and both indexes).
func (c *Catalog) ResidentBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident
}

// IndexBytes returns the tag/kind index share of ResidentBytes. Like
// ResidentBytes it covers only budget-tracked (reloadable) entries —
// pinned AddDocument entries sit outside the budget and report their
// index footprint per entry via Info instead — so the share can never
// exceed the total.
func (c *Catalog) IndexBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for _, e := range c.entries {
		if !e.pinned {
			total += e.idxBytes
		}
	}
	return total
}

// ValueIndexBytes returns the value-index share of ResidentBytes, with
// the same budget-tracked scope as IndexBytes.
func (c *Catalog) ValueIndexBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for _, e := range c.entries {
		if !e.pinned {
			total += e.vidxBytes
		}
	}
	return total
}

// Info snapshots every entry's statistics, sorted by name.
func (c *Catalog) Info() []DocInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]DocInfo, 0, len(c.entries))
	for _, e := range c.entries {
		format := e.format.String()
		if e.pinned {
			format = "memory"
		}
		info := DocInfo{
			Name:        e.name,
			Path:        e.path,
			Format:      format,
			Resident:    e.d != nil,
			Pinned:      e.pinned,
			Generation:  e.gen,
			Bytes:       e.bytes,
			ValueBytes:  e.valBytes,
			IndexBytes:  e.idxBytes,
			VIndexBytes: e.vidxBytes,
			Loads:       e.loads,
			Evictions:   e.evictions,
			Queries:     e.queries,
			EvalTime:    time.Duration(e.evalTime),
		}
		if e.d != nil {
			info.Nodes = e.d.Size()
			info.Height = e.d.Height()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// safeLoad runs a load end to end — read, then ensure the shared
// tag/kind index is resident before the entry goes live (an SCJ2 file
// already carries it, anything else builds it here, once — queries
// never pay the rescan), and likewise the value index for documents
// that carry values — with panic containment: a panicking decoder
// (corrupt file, injected fault) becomes a load error on this Open,
// leaving the entry cold and cleanly retryable. "catalog.load" is the
// fault-injection point.
func safeLoad(path string, format Format, buildIndex, buildVIndex bool) (d *doc.Document, f Format, err error) {
	f = format
	defer func() {
		if v := recover(); v != nil {
			d, err = nil, fault.NewPanicError(v)
		}
	}()
	if err := fault.Hit("catalog.load"); err != nil {
		return nil, f, err
	}
	d, f, err = loadDocument(path, format)
	if err != nil {
		return nil, f, err
	}
	if buildIndex {
		d.TagIndex()
	}
	if buildVIndex && d.HasValues() {
		d.ValueIndex()
	}
	return d, f, nil
}

// OpenRefs returns the total open handle count across all entries —
// zero once every Open has been balanced by Close. The chaos suite
// asserts it to prove failing loads and recovered panics never leak
// document references.
func (c *Catalog) OpenRefs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, e := range c.entries {
		total += e.refs
	}
	return total
}

// loadDocument reads a document from disk, sniffing the SCJ1/SCJ2
// magic when the format is FormatAuto.
func loadDocument(path string, format Format) (*doc.Document, Format, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, format, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	if format == FormatAuto {
		magic, err := br.Peek(4)
		if err == nil && (string(magic) == "SCJ1" || string(magic) == "SCJ2") {
			format = FormatBinary
		} else {
			format = FormatXML
		}
	}
	switch format {
	case FormatBinary:
		d, err := doc.ReadBinary(br)
		return d, format, err
	default:
		d, err := doc.Shred(br)
		return d, FormatXML, err
	}
}
