package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateSurface = flag.Bool("update-surface", false, "rewrite testdata/flags.txt")

// TestFlagSurface keeps the command's flags, with their defaults, in
// testdata/flags.txt: the CLI part of the root package's surface ledger.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("xpathd", flag.ContinueOnError)
	registerFlags(fs)
	var lines []string
	fs.VisitAll(func(f *flag.Flag) { lines = append(lines, fmt.Sprintf("-%s=%s", f.Name, f.DefValue)) })
	got := fmt.Sprintf("## xpathd flags (%d)\n%s\n", len(lines), strings.Join(lines, "\n"))
	const path = "testdata/flags.txt"
	if *updateSurface {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s is stale; a flag change must show in this file (rerun with -update-surface):\ngot\n%s", path, got)
	}
}
