package trace

import (
	"fmt"
	"io"
	"sort"

	"packunpack/internal/sim"
)

// This file builds and renders P×P communication matrices from the
// event stream: who sent how many messages (and words) to whom, per
// phase and in total. The per-phase split is what makes the paper's
// scheme differences visible at a glance — SSS floods every processor
// pair with per-element messages, CSS sends one compact message per
// pair, CMS reshapes traffic through the many-to-many exchange.

// MatrixCells holds P×P counters in row-major [src*P+dst] order.
type MatrixCells struct {
	Msgs  []int64
	Words []int64
}

func newCells(p int) *MatrixCells {
	return &MatrixCells{Msgs: make([]int64, p*p), Words: make([]int64, p*p)}
}

// Totals sums the cells.
func (c *MatrixCells) Totals() (msgs, words int64) {
	for i := range c.Msgs {
		msgs += c.Msgs[i]
		words += c.Words[i]
	}
	return msgs, words
}

// CommMatrix is the traffic breakdown of one capture.
type CommMatrix struct {
	P       int
	Total   *MatrixCells
	ByPhase map[string]*MatrixCells
}

// BuildMatrix aggregates every EvSend in the capture. SendFree control
// messages (EvDeliver without a matching EvSend) are uncharged traffic
// and are deliberately excluded, which keeps the totals reconcilable
// with Stats.MsgsSent/WordsSent.
//
// Degenerate captures are safe: a zero-processor or event-free capture
// yields an empty matrix, and events whose rank or peer falls outside
// [0, Procs) — a malformed or truncated capture — are skipped rather
// than crashing the exporter.
func BuildMatrix(c *Capture) *CommMatrix {
	p := c.Procs
	if p < 0 {
		p = 0
	}
	m := &CommMatrix{P: p, Total: newCells(p), ByPhase: map[string]*MatrixCells{}}
	for src, row := range c.Events {
		if src >= p {
			break
		}
		for _, e := range row {
			if e.Kind != sim.EvSend || e.Peer < 0 || e.Peer >= p {
				continue
			}
			i := src*p + e.Peer
			m.Total.Msgs[i]++
			m.Total.Words[i] += int64(e.Words)
			ph := m.ByPhase[e.Phase]
			if ph == nil {
				ph = newCells(p)
				m.ByPhase[e.Phase] = ph
			}
			ph.Msgs[i]++
			ph.Words[i] += int64(e.Words)
		}
	}
	return m
}

// PhaseNames returns the phases with traffic, sorted.
func (m *CommMatrix) PhaseNames() []string {
	names := make([]string, 0, len(m.ByPhase))
	for name := range m.ByPhase {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// heatGlyphs maps a cell's share of the matrix maximum to a density
// glyph, darkest last.
const heatGlyphs = " .:-=+*#%@"

// renderCells writes one matrix. Small machines (P <= 16) get exact
// numbers; larger ones get a density heatmap so a 256-processor matrix
// still fits a terminal.
func renderCells(w io.Writer, p int, vals []int64, unit string) {
	var max, total int64
	for _, v := range vals {
		total += v
		if v > max {
			max = v
		}
	}
	if total == 0 {
		fmt.Fprintf(w, "  (no %s)\n", unit)
		return
	}
	if p <= 16 {
		width := len(fmt.Sprint(max))
		if width < len(fmt.Sprint(p-1))+1 {
			width = len(fmt.Sprint(p-1)) + 1
		}
		fmt.Fprintf(w, "  %*s", width+4, "dst")
		for d := 0; d < p; d++ {
			fmt.Fprintf(w, " %*d", width, d)
		}
		fmt.Fprintln(w)
		for s := 0; s < p; s++ {
			fmt.Fprintf(w, "  src %*d", width, s)
			for d := 0; d < p; d++ {
				fmt.Fprintf(w, " %*d", width, vals[s*p+d])
			}
			fmt.Fprintln(w)
		}
		return
	}
	fmt.Fprintf(w, "  heatmap (%s, max cell %d, scale %q light..dark)\n", unit, max, heatGlyphs)
	for s := 0; s < p; s++ {
		line := make([]byte, p)
		for d := 0; d < p; d++ {
			v := vals[s*p+d]
			g := 0
			if v > 0 {
				// Linear bucket over (0, max], never rendering nonzero as blank.
				g = 1 + int(float64(v)/float64(max)*float64(len(heatGlyphs)-2))
				if g > len(heatGlyphs)-1 {
					g = len(heatGlyphs) - 1
				}
			}
			line[d] = heatGlyphs[g]
		}
		fmt.Fprintf(w, "  p%-4d |%s|\n", s, line)
	}
}

// WriteMatrix renders the total matrix followed by one matrix per
// phase, each with message and word counts.
func WriteMatrix(w io.Writer, m *CommMatrix) {
	if m.Total == nil {
		fmt.Fprintln(w, "trace: no communication events (was a RetainSink attached as the machine's Sink?)")
		return
	}
	msgs, words := m.Total.Totals()
	if msgs == 0 {
		fmt.Fprintln(w, "trace: no messages sent (was a RetainSink attached as the machine's Sink?)")
		return
	}
	sections := append([]string{"total"}, m.PhaseNames()...)
	for _, name := range sections {
		cells := m.Total
		if name != "total" {
			cells = m.ByPhase[name]
		}
		sMsgs, sWords := cells.Totals()
		fmt.Fprintf(w, "%s: %d messages, %d words\n", name, sMsgs, sWords)
		fmt.Fprintln(w, " messages (src -> dst):")
		renderCells(w, m.P, cells.Msgs, "messages")
		fmt.Fprintln(w, " words (src -> dst):")
		renderCells(w, m.P, cells.Words, "words")
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "grand total: %d messages, %d words\n", msgs, words)
}
