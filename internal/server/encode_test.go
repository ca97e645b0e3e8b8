package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"staircase/internal/xmark"
)

// wantJSON is what the parent wrote: Encoder.Encode of encoding/json.
func wantJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func checkResponse(t testing.TB, r *QueryResponse) {
	t.Helper()
	got, want := appendQueryResponse(nil, r), wantJSON(t, r)
	if !bytes.Equal(got, want) {
		t.Fatalf("appendQueryResponse differs from encoding/json\n got %.300q\nwant %.300q", got, want)
	}
	// The same response served from cached encodings.
	enc := *r
	enc.Results = slices.Clone(r.Results)
	for i := range enc.Results {
		if res := &enc.Results[i]; res.Nodes != nil {
			res.enc = appendNodes(nil, res.Nodes)
		}
	}
	if got := appendQueryResponse([]byte("x"), &enc); !bytes.Equal(got[1:], want) {
		t.Fatalf("response from cached encodings differs\n got %.300q\nwant %.300q", got[1:], want)
	}
}

func checkChunk(t testing.TB, c *StreamChunk) {
	t.Helper()
	if got, want := appendStreamChunk(nil, c), wantJSON(t, c); !bytes.Equal(got, want) {
		t.Fatalf("appendStreamChunk differs from encoding/json\n got %.300q\nwant %.300q", got, want)
	}
}

var edgeNodes = []int32{0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 99999, 100000, 999999, 1000000,
	9999999, 10000000, 99999999, 100000000, 999999999, 1000000000, math.MaxInt32, -1, -9, -10, -99999, -100000, math.MinInt32}

var edgeStrings = []string{"", "//a/b", `say "hi"`, `back\slash`, "a<b>c&d", "line\u2028sep\u2029", "tab\tnl\nnul\x00bel\x07",
	"del\x7f", "bad\xff\xfeutf8", "ünïcode ✓", "/descendant::x[@id = 'person0']"}

func randomNodes(rng *rand.Rand) []int32 {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return []int32{}
	case 2:
		return []int32{edgeNodes[rng.Intn(len(edgeNodes))]}
	}
	nodes := make([]int32, rng.Intn(40))
	for i := range nodes {
		if rng.Intn(3) == 0 {
			nodes[i] = edgeNodes[rng.Intn(len(edgeNodes))]
		} else {
			nodes[i] = int32(rng.Int63n(1 << uint(1+rng.Intn(31))))
		}
	}
	return nodes
}

func TestEncodeMatchesEncodingJSON(t *testing.T) {
	for _, v := range edgeNodes {
		checkResponse(t, &QueryResponse{Results: []QueryResult{{Nodes: []int32{v}}}})
	}
	big := make([]int32, 100000)
	for i := range big {
		big[i] = int32(i * 7)
	}
	checkResponse(t, &QueryResponse{Doc: "d", Generation: 3, Results: []QueryResult{{Query: "//x", Count: len(big), Nodes: big}}})
	checkChunk(t, &StreamChunk{Nodes: big})
	checkResponse(t, &QueryResponse{})                           // "results":null
	checkResponse(t, &QueryResponse{Results: []QueryResult{}})   // "results":[]
	checkResponse(t, &QueryResponse{Results: []QueryResult{{}}}) // "nodes":null
	checkChunk(t, &StreamChunk{})
	checkChunk(t, &StreamChunk{Nodes: []int32{}}) // omitempty drops an empty array

	rng := rand.New(rand.NewSource(22))
	str := func() string { return edgeStrings[rng.Intn(len(edgeStrings))] }
	flag := func() bool { return rng.Intn(2) == 0 }
	for range 2000 {
		r := &QueryResponse{Doc: str(), Generation: rng.Uint64() >> uint(rng.Intn(64))}
		for range rng.Intn(4) {
			r.Results = append(r.Results, QueryResult{
				Query: str(), Count: rng.Intn(1 << 20), Nodes: randomNodes(rng), Truncated: flag(), Cached: flag(),
				ElapsedNs: rng.Int63n(1 << 40), Error: str(), status: rng.Intn(600),
			})
		}
		checkResponse(t, r)
		c := &StreamChunk{Nodes: randomNodes(rng), Done: flag(), Truncated: flag(), Error: str()}
		if flag() {
			c.Count, c.ElapsedNs = rng.Intn(1<<20), rng.Int63n(1<<40)
		}
		checkChunk(t, c)
	}
}

func FuzzEncodeResponse(f *testing.F) {
	f.Add("d", uint64(1), "//a/b", "", []byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f}, byte(0), int64(1234))
	f.Add("a<b", uint64(math.MaxUint64), "say \"hi\"\u2028", "boom\x00\xff", []byte{}, byte(0xff), int64(-1))
	f.Fuzz(func(t *testing.T, doc string, gen uint64, query, errText string, raw []byte, flags byte, elapsed int64) {
		nodes := make([]int32, len(raw)/4)
		for i := range nodes {
			nodes[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		if flags&1 != 0 && len(nodes) == 0 {
			nodes = nil
		}
		res := QueryResult{Query: query, Count: len(nodes), Nodes: nodes, Truncated: flags&2 != 0, Cached: flags&4 != 0,
			ElapsedNs: elapsed, Error: errText}
		r := &QueryResponse{Doc: doc, Generation: gen}
		for range int(flags >> 6) {
			r.Results = append(r.Results, res)
		}
		checkResponse(t, r)
		checkChunk(t, &StreamChunk{Nodes: nodes, Done: flags&16 != 0, Count: len(nodes), Truncated: flags&2 != 0,
			ElapsedNs: elapsed, Error: errText})
	})
}

// checkDecode holds the fast scanner to encoding/json: where it accepts
// a body it must produce json.Unmarshal's request, and decodeRequest as
// a whole must behave like the json.Decoder it replaced.
func checkDecode(t testing.TB, body []byte) {
	t.Helper()
	var fast QueryRequest
	if scanRequest(body, &fast) {
		var want QueryRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("scanRequest accepted %q, json.Unmarshal says %v", body, err)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("scanRequest(%q) = %+v, json.Unmarshal = %+v", body, fast, want)
		}
	}
	var got, want QueryRequest
	gotErr := decodeRequest(body, &got)
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("decodeRequest(%q) error %v, json.Decoder %v", body, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeRequest(%q) = %+v, json.Decoder = %+v", body, got, want)
	}
}

var decodeSeeds = []string{
	`{"doc":"d","query":"/descendant::a/child::b","limit":10}`,
	`{"doc":"d","query":"//a","noCache":true}`,
	` { "doc" : "d" , "query" : "//a" , "noCache" : false , "timeoutMs" : 250 , "limit" : 0 } ` + "\n",
	`{"doc":"d","queries":["//a","//b"],"options":{"parallelism":2}}`,
	`{"doc":"d","query":"//a[. = \"x\"]"}`, `{"doc":"d","query":"//ü"}`, `{"Doc":"d","QUERY":"//a"}`,
	`{"doc":"a","doc":"b","limit":1,"limit":2}`, `{"limit":01}`, `{"limit":-1}`, `{"limit":1e3}`, `{"limit":1.5}`,
	`{"limit":12345678901234567890}`, `{"limit":999999999}`, `{"limit":1234567890}`, `{"noCache":tru}`, `{"noCache":null}`,
	`{"doc":null}`, `{}`, `{`, `{"doc"`, `{"doc":"d"`, `{"doc":"d",}`, `{"doc":"d"} x`, `{"doc":"d"}{"doc":"e"}`, ``, `null`, `[]`, `"s"`,
	"{\"doc\":\"a\x01b\"}", "{\"doc\":\"a\x7fb\"}", `{"doc":"d","unknown":1}`,
}

func TestDecodeRequestMatchesEncodingJSON(t *testing.T) {
	for _, s := range decodeSeeds {
		checkDecode(t, []byte(s))
	}
	var req QueryRequest
	if !scanRequest([]byte(decodeSeeds[0]), &req) || req.Limit != 10 || req.Doc != "d" {
		t.Fatalf("the benchmark's request shape missed the fast path: %+v", req)
	}
}

func FuzzDecodeRequest(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode(t, body) })
}

// BenchmarkEncodeNodes runs the hand encoder and encoding/json over the
// same node array — every node of the smoke corpus — in one run and
// reports both costs per node; comparing them is the reader's (or the
// regression gate's) job, not a wall-clock assertion's.
func BenchmarkEncodeNodes(b *testing.B) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 0.5, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	nodes := make([]int32, d.Size())
	for i := range nodes {
		nodes[i] = int32(i)
	}
	b.ResetTimer()
	rounds := max(b.N, 8) // -benchtime 1x still averages a few
	perNode := func(encode func()) float64 {
		encode() // warm buffers and caches
		start := time.Now()
		for range rounds {
			encode()
		}
		return float64(time.Since(start).Nanoseconds()) / float64(rounds*len(nodes))
	}
	var buf []byte
	hand := perNode(func() { buf = appendNodes(buf[:0], nodes) })
	std := perNode(func() {
		if buf, err = json.Marshal(nodes); err != nil {
			b.Fatal(err)
		}
	})
	b.ReportMetric(hand, "hand-ns/node")
	b.ReportMetric(std, "json-ns/node")
}
