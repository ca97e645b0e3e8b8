package server

import (
	"encoding/json"
	"math/bits"
	"slices"
	"strconv"
)

// The result endpoints write their JSON by hand: a cache hit is a
// look-up and a copy, and reflection over []int32 cost more than both.
// Every function here appends exactly the bytes encoding/json emits for
// the same value (field order, omitempty, HTML-safe escaping, trailing
// newline of Encoder.Encode); encode_test.go holds them to that.

// digitPairs holds "00" "01" … "99": two digits per table look-up.
const digitPairs = "" +
	"0001020304050607080910111213141516171819" +
	"2021222324252627282930313233343536373839" +
	"4041424344454647484950515253545556575859" +
	"6061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

var pow10 = [...]uint32{1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000, 1000000000}

// digits10 is the number of decimal digits of u: log10 estimated from
// the bit length (1233/4096 ≈ log10 2), then corrected by one compare.
func digits10(u uint32) int {
	u |= 1 // zero has one digit
	t := bits.Len32(u) * 1233 >> 12
	if u >= pow10[t] {
		t++
	}
	return t
}

// nodesLen is the exact length of appendNodes' output.
func nodesLen(nodes []int32) int {
	n := 2 + max(len(nodes)-1, 0) // brackets and commas
	for _, v := range nodes {
		u := uint32(v)
		if v < 0 {
			n++
			u = -u
		}
		n += digits10(u)
	}
	return n
}

// appendNodes appends the JSON array of nodes ("[]" when empty). The
// space is sized once and filled by indexed stores, two digits a step.
func appendNodes(dst []byte, nodes []int32) []byte {
	k := len(dst)
	dst = slices.Grow(dst, nodesLen(nodes))
	b := dst[:cap(dst)]
	b[k] = '['
	k++
	for i, v := range nodes {
		if i > 0 {
			b[k] = ','
			k++
		}
		u := uint32(v)
		if v < 0 {
			b[k] = '-'
			k++
			u = -u
		}
		k += digits10(u)
		j := k
		for u >= 100 {
			r := u % 100 * 2
			u /= 100
			j -= 2
			b[j], b[j+1] = digitPairs[r], digitPairs[r+1]
		}
		if u >= 10 {
			b[j-2], b[j-1] = digitPairs[u*2], digitPairs[u*2+1]
		} else {
			b[j-1] = '0' + byte(u)
		}
	}
	b[k] = ']'
	return b[:k+1]
}

// appendString appends s as a JSON string. Printable ASCII without the
// five characters encoding/json escapes is copied; any other byte hands
// the whole string to json.Marshal.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string cannot fail to marshal
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendQueryResponse appends r as json.Encoder.Encode writes it. A
// result carrying the cache's encoding of its nodes copies it instead
// of touching the nodes.
func appendQueryResponse(dst []byte, r *QueryResponse) []byte {
	dst = append(dst, `{"doc":`...)
	dst = appendString(dst, r.Doc)
	dst = append(dst, `,"generation":`...)
	dst = strconv.AppendUint(dst, r.Generation, 10)
	dst = append(dst, `,"results":`...)
	if r.Results == nil {
		return append(dst, "null}\n"...)
	}
	dst = append(dst, '[')
	for i := range r.Results {
		res := &r.Results[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"query":`...)
		dst = appendString(dst, res.Query)
		dst = append(dst, `,"count":`...)
		dst = strconv.AppendInt(dst, int64(res.Count), 10)
		dst = append(dst, `,"nodes":`...)
		switch {
		case res.enc != nil:
			dst = append(dst, res.enc...)
		case res.Nodes == nil:
			dst = append(dst, "null"...)
		default:
			dst = appendNodes(dst, res.Nodes)
		}
		if res.Truncated {
			dst = append(dst, `,"truncated":true`...)
		}
		dst = append(dst, `,"cached":`...)
		dst = strconv.AppendBool(dst, res.Cached)
		if res.Coalesced {
			dst = append(dst, `,"coalesced":true`...)
		}
		dst = append(dst, `,"elapsedNs":`...)
		dst = strconv.AppendInt(dst, res.ElapsedNs, 10)
		if res.Error != "" {
			dst = append(dst, `,"error":`...)
			dst = appendString(dst, res.Error)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...)
}

// appendStreamChunk appends c as one NDJSON line of POST /stream;
// every field is omitempty.
func appendStreamChunk(dst []byte, c *StreamChunk) []byte {
	// Every field is written with a leading comma; the first one's
	// becomes the opening brace.
	start := len(dst)
	if len(c.Nodes) > 0 {
		dst = append(dst, `,"nodes":`...)
		dst = appendNodes(dst, c.Nodes)
	}
	if c.Done {
		dst = append(dst, `,"done":true`...)
	}
	if c.Count != 0 {
		dst = append(dst, `,"count":`...)
		dst = strconv.AppendInt(dst, int64(c.Count), 10)
	}
	if c.Truncated {
		dst = append(dst, `,"truncated":true`...)
	}
	if c.Coalesced {
		dst = append(dst, `,"coalesced":true`...)
	}
	if c.Cached {
		dst = append(dst, `,"cached":true`...)
	}
	if c.ElapsedNs != 0 {
		dst = append(dst, `,"elapsedNs":`...)
		dst = strconv.AppendInt(dst, c.ElapsedNs, 10)
	}
	if c.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendString(dst, c.Error)
	}
	if len(dst) == start {
		dst = append(dst, '{')
	} else {
		dst[start] = '{'
	}
	return append(dst, "}\n"...)
}
