// Command benchrun prints the tables and figures of the staircase join
// paper's evaluation, wall-clock times included (package bench has the
// experiment index; `go test ./bench -run Paper -v` checks their counts
// against bench/testdata/paper_golden.json).
//
// Usage:
//
//	benchrun [-exp all|table1|fig3|fig11a|fig11b|fig11c|fig11d|fig11e|fig11f|window|frag|mpmgjn|storage]
//	         [-sizes 0.5,1,2,4] [-out file] [-json]
//
// Sizes are megabyte equivalents of the XMark-substitute generator; the
// paper sweeps 1.1–1111 MB. Larger sizes reproduce the same shapes with
// more headroom: try -sizes 1,4,16,64 on a machine with a few GB of RAM.
// The times only illustrate the counts; the repository's performance
// gate is benchmark/run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"staircase/bench"
)

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %w", part, err)
		}
		out = append(out, f)
	}
	return out, nil
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "benchrun:", err)
	os.Exit(code)
}

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all'")
	sizesFlag := flag.String("sizes", "0.5,1,2,4", "document sizes in MB equivalents")
	out := flag.String("out", "", "also write output to this file")
	jsonOut := flag.Bool("json", false, "emit experiment results as JSON instead of formatted tables")
	flag.Parse()

	sizes, err := parseFloats(*sizesFlag)
	if err != nil {
		fail(2, err)
	}
	var ids []string
	var run []func(*bench.Corpus, []float64) bench.Table
	for _, e := range bench.Experiments {
		ids = append(ids, e.ID)
		if *exp == "all" || *exp == e.ID {
			run = append(run, e.Run)
		}
	}
	if len(run) == 0 {
		fail(2, fmt.Errorf("unknown experiment %q (known: %s, all)", *exp, strings.Join(ids, ", ")))
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(1, err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	c := bench.NewCorpus()
	if *jsonOut {
		tables := make([]bench.Table, 0, len(run))
		for _, r := range run {
			tables = append(tables, r(c, sizes))
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			fail(1, err)
		}
		return
	}
	// Text mode streams each table as its experiment completes — a full
	// sweep runs for minutes and partial output is valuable.
	for _, r := range run {
		fmt.Fprintln(w, r(c, sizes).Format())
	}
}
