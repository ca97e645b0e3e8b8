package server

import (
	"bytes"
	"encoding/json"
)

// decodeRequest fills req from a request body. Nearly every body is
// the flat one-query object {"doc":…,"query":…,"limit":…,"noCache":…,
// "timeoutMs":…} without string escapes; scanRequest reads that shape
// directly and anything else goes to encoding/json, which also owns
// every error message.
func decodeRequest(body []byte, req *QueryRequest) error {
	*req = QueryRequest{}
	if scanRequest(body, req) {
		return nil
	}
	*req = QueryRequest{}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// scanRequest decodes the flat shape into a zeroed req and reports
// whether body had it; on false req is partly filled. It accepts a
// subset of what encoding/json accepts and agrees with it there.
func scanRequest(body []byte, req *QueryRequest) bool {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return false
	}
	for i++; ; i++ {
		key, j, ok := scanString(body, skipSpace(body, i))
		if !ok {
			return false
		}
		if j = skipSpace(body, j); j == len(body) || body[j] != ':' {
			return false
		}
		j = skipSpace(body, j+1)
		var v []byte
		switch string(key) {
		case "doc":
			v, j, ok = scanString(body, j)
			req.Doc = string(v)
		case "query":
			v, j, ok = scanString(body, j)
			req.Query = string(v)
		case "limit":
			req.Limit, j, ok = scanUint(body, j)
		case "timeoutMs":
			req.TimeoutMs, j, ok = scanUint(body, j)
		case "noCache":
			switch {
			case bytes.HasPrefix(body[j:], []byte("true")):
				req.NoCache, j = true, j+4
			case bytes.HasPrefix(body[j:], []byte("false")):
				req.NoCache, j = false, j+5
			default:
				ok = false
			}
		default:
			ok = false
		}
		if i = skipSpace(body, j); !ok || i == len(body) {
			return false
		}
		if body[i] == '}' {
			return skipSpace(body, i+1) == len(body)
		}
		if body[i] != ',' {
			return false
		}
	}
}

// scanUint reads one to nine digits without a leading zero: JSON has
// no "01", and longer numbers are encoding/json's to range-check.
func scanUint(b []byte, i int) (n, next int, ok bool) {
	j := i
	for ; j < len(b) && b[j] >= '0' && b[j] <= '9'; j++ {
		n = n*10 + int(b[j]-'0')
	}
	return n, j, j > i && j-i <= 9 && (b[i] != '0' || j-i == 1)
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanString reads a JSON string of printable ASCII without escapes
// starting at b[i]; it returns the contents and the index after the
// closing quote.
func scanString(b []byte, i int) (s []byte, next int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, 0, false
		}
	}
	return nil, 0, false
}
