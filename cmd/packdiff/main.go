// Command packdiff compares a change with its parent. It reads two
// kinds of input, told apart by their first line (DESIGN.md §10):
//
//   - two packbench -json reports (schema packbench-perf/v8), compared
//     bit for bit: any drift, and any row, derived key or service
//     object present on one side only, fails.
//   - two files of perfbench output lines (make perfpair writes them).
//     For each workload and end-to-end metric of BENCHMARK.json, found
//     in the working directory or above it, packdiff prints each
//     side's median and quartiles, the pairs (runs of one seed) the
//     change won, the Mann–Whitney p and a verdict: gain, no
//     regression, regression or unresolved.
//
// Usage:
//
//	packdiff OLD.json NEW.json              # markdown table
//	packdiff -format tsv OLD.json NEW.json  # tab-separated table
//	packdiff -o delta.md OLD.json NEW.json  # also used by `make perfgate`
//	packdiff parent.jsonl change.jsonl      # perfbench runs (make perfpair)
//
// Exit codes: 0 the reports match exactly, or the change passes on
// every workload; 1 drift, anything left uncompared (a pre-v8 report
// included), a regressed or unresolved metric, or a larger share of
// failed ops; 2 usage, an unreadable input, or a perfbench file
// holding a traced run or a workload or metric BENCHMARK.json does
// not declare.
//
// Two reports of the same grid, seed and cost model agree exactly
// whatever -parallel each ran at: every row books its points in the
// serial replay's order (DESIGN.md §10).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"packunpack/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is packdiff over its arguments and output streams; it returns
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("packdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "md", "table format: md or tsv")
	outPath := fs.String("o", "", "also write the table to this file")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: packdiff [flags] OLD NEW\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "packdiff: %v\n", err)
		return 2
	}
	if *format != "md" && *format != "tsv" {
		return fail(fmt.Errorf("unknown format %q (md or tsv)", *format))
	}
	oldPath, newPath := fs.Arg(0), fs.Arg(1)
	c, err := bench.Compare(oldPath, newPath)
	if err != nil {
		return fail(err)
	}

	var table bytes.Buffer
	if *format == "tsv" {
		c.WriteTSV(&table)
	} else {
		c.WriteMarkdown(&table)
	}
	stdout.Write(table.Bytes())
	if *outPath != "" {
		if err := os.WriteFile(*outPath, table.Bytes(), 0o644); err != nil {
			return fail(err)
		}
	}
	if !c.OK() {
		fmt.Fprintf(stderr, "packdiff: %s does not pass against %s\n", newPath, oldPath)
		return 1
	}
	return 0
}
