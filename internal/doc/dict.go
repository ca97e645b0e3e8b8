package doc

// Dict interns tag and attribute names, mapping each distinct name to a
// dense int32 id. Bulk node data stores ids only; the dictionary is the
// single place holding the strings (mirroring Monet's string-dictionary
// BATs).
type Dict struct {
	ids   map[string]int32
	names []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]int32)}
}

// Intern returns the id for name, assigning the next free id on first
// encounter.
func (d *Dict) Intern(name string) int32 {
	if id, ok := d.ids[name]; ok {
		return id
	}
	id := int32(len(d.names))
	d.ids[name] = id
	d.names = append(d.names, name)
	return id
}

// internBytes is Intern for a name still in a read buffer: only a name
// not seen before is copied.
func (d *Dict) internBytes(name []byte) int32 {
	if id, ok := d.ids[string(name)]; ok {
		return id
	}
	return d.Intern(string(name))
}

// Lookup returns the id for name and whether it is present. Unlike
// Intern it never mutates the dictionary, so it is safe on shared
// documents.
func (d *Dict) Lookup(name string) (int32, bool) {
	id, ok := d.ids[name]
	return id, ok
}

// Name returns the name with the given id.
func (d *Dict) Name(id int32) string { return d.names[id] }

// Len returns the number of distinct interned names.
func (d *Dict) Len() int { return len(d.names) }
