package doc

// The shred options the external tests (package doc_test) use; the
// package keeps them unexported.
var (
	ShredWithoutValues  = shredWithoutValues
	ShredKeepWhitespace = shredKeepWhitespace
)
