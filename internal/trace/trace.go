// Package trace is the observability layer over the machines' one
// structured event stream (sim.Config.Sink / RealConfig.Sink): the
// sinks that keep, stream, aggregate or ring-buffer it (sink.go,
// flight.go), and the views derived from a retained capture — per-
// processor span timelines rendered as ASCII Gantt charts and phase
// summaries, Chrome/Perfetto JSON, P×P communication matrices and the
// critical path. They show where a PACK/UNPACK run spends its time:
// the ranking scans, the prefix-reduction-sum waves along each grid
// dimension, and the many-to-many exchange.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"packunpack/internal/sim"
)

// glyphFor maps a span to its chart character: upper case for
// computation, lower case for communication, keyed by phase.
func glyphFor(phase string, comm bool) byte {
	var c byte
	switch phase {
	case "prs":
		c = 'P'
	case "m2m":
		c = 'M'
	case "redist":
		c = 'R'
	default:
		c = 'C' // local computation (the "default" phase)
	}
	if comm {
		c += 'a' - 'A'
	}
	return c
}

// Gantt renders one row per processor, bucketing virtual time into
// width columns. Each bucket shows the glyph of the span kind that
// dominates it; '.' marks idle time (gaps before the first activity or
// between spans, which only arise from receive waits already charged
// as communication — so '.' is rare and indicates the processor
// finished early).
func Gantt(w io.Writer, spans [][]Span, width int) {
	GanttUnit(w, spans, width, "virtual time")
}

// GanttUnit is Gantt with an explicit time-axis label: "virtual time"
// for emulator captures, "wall time" for real-backend ones (the chart
// logic is identical — only the meaning of the microseconds differs,
// and the label keeps the reader from mixing them up).
func GanttUnit(w io.Writer, spans [][]Span, width int, unit string) {
	if width <= 0 {
		width = 72
	}
	// Arbitrarily wide charts only smear spans across unreadable
	// columns (and overflow column arithmetic); clamp to something no
	// terminal exceeds.
	const maxWidth = 4096
	if width > maxWidth {
		width = maxWidth
	}
	var end float64
	haveSpans := false
	for _, row := range spans {
		if n := len(row); n > 0 {
			haveSpans = true
			if row[n-1].End > end {
				end = row[n-1].End
			}
		}
	}
	if end == 0 {
		// Distinguish "nothing was recorded" (no retained events, or
		// nothing ran) from "spans exist but the run took zero virtual
		// time" (all cost parameters zero).
		if haveSpans {
			fmt.Fprintln(w, "trace: all recorded spans have zero duration (zero-cost run; nothing to chart)")
		} else {
			fmt.Fprintln(w, "trace: no recorded spans (was a RetainSink attached as the machine's Sink?)")
		}
		return
	}
	scale := float64(width) / end

	fmt.Fprintf(w, "%s 0 .. %.3f ms, one column = %.1f us\n", unit, end/1000, end/float64(width))
	for rank, row := range spans {
		line := make([]byte, width)
		weight := make([]float64, width) // dominant-span bookkeeping
		for i := range line {
			line[i] = '.'
		}
		for _, s := range row {
			lo := int(s.Start * scale)
			hi := int(s.End * scale)
			if lo >= width {
				lo = width - 1 // float rounding at the right edge
			}
			if hi >= width {
				hi = width - 1
			}
			for c := lo; c <= hi; c++ {
				// Span coverage of this column.
				colLo, colHi := float64(c)/scale, float64(c+1)/scale
				cover := min64(s.End, colHi) - max64(s.Start, colLo)
				if cover > weight[c] {
					weight[c] = cover
					line[c] = glyphFor(s.Phase, s.Comm)
				}
			}
		}
		fmt.Fprintf(w, "p%-3d |%s|\n", rank, line)
	}
	fmt.Fprintln(w, "legend: C/c local comp/comm, P/p prefix-reduction-sum, M/m many-to-many, R/r redistribution, . idle")
}

func min64(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Summary prints per-phase totals (maximum over processors, like the
// paper's per-stage measurements) from machine statistics.
func Summary(w io.Writer, stats []sim.Stats) {
	type agg struct{ comp, comm float64 }
	phases := map[string]agg{}
	for _, s := range stats {
		for name, ph := range s.Phases {
			a := phases[name]
			if ph.Comp > a.comp {
				a.comp = ph.Comp
			}
			if ph.Comm > a.comm {
				a.comm = ph.Comm
			}
			phases[name] = a
		}
	}
	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-10s  %12s  %12s\n", "phase", "max comp ms", "max comm ms")
	fmt.Fprintln(w, strings.Repeat("-", 40))
	for _, name := range names {
		a := phases[name]
		fmt.Fprintf(w, "%-10s  %12.3f  %12.3f\n", name, a.comp/1000, a.comm/1000)
	}
}
