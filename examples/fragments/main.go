// Fragments: the paper's Future Research extension (§6) of tag-name
// fragmentation ("Q1 could be brought down from 345 ms to 39 ms") as it
// surfaces in the public plan API: the optimizer pushes name tests
// below the join as IndexScan fragments, and EXPLAIN shows the
// decision.
//
//	go run ./examples/fragments [-size 4]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"staircase"
)

const q1 = "/descendant::profile/descendant::education"

func main() {
	size := flag.Float64("size", 4, "document size in MB")
	flag.Parse()

	d, err := staircase.GenerateXMark(*size, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("document: %d nodes\n\n", d.NumNodes())

	// --- fragmentation by tag name -----------------------------------
	// PushNever scans the full plane per step; the default lets the
	// cost model run each join over the tag fragment served by the
	// shared index — the §6 fragmentation win, decided per operator.
	full := timeQuery(d, q1, &staircase.Options{Pushdown: staircase.PushNever})
	frag := timeQuery(d, q1, &staircase.Options{Pushdown: staircase.PushAlways})
	if full.count != frag.count {
		log.Fatalf("results disagree: %d vs %d", full.count, frag.count)
	}
	fmt.Printf("Q1 full plane:  %8.3fms\n", full.ms)
	fmt.Printf("Q1 fragments:   %8.3fms   (%.1fx faster, %d results either way)\n\n",
		frag.ms, full.ms/frag.ms, frag.count)

	// The plan tree names the fragment source of every pushed step.
	p, err := d.Prepare(q1, &staircase.Options{Pushdown: staircase.PushAlways})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(p.MustExplain())
}

type timing struct {
	count int
	ms    float64
}

func timeQuery(d *staircase.Document, q string, opts *staircase.Options) timing {
	// Fastest of three runs, the usual noise-robust micro-measurement.
	best := timing{ms: -1}
	for i := 0; i < 3; i++ {
		start := time.Now()
		res, err := d.Query(q, opts)
		if err != nil {
			log.Fatal(err)
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		if best.ms < 0 || ms < best.ms {
			best = timing{count: len(res.Nodes), ms: ms}
		}
	}
	return best
}
