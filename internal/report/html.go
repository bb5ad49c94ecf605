package report

import (
	"fmt"
	"html"
	"io"
	"math"
	"strconv"
	"strings"
)

// chart is one rendered figure: the SVG plot plus the pieces the
// accessibility pass requires — a legend whenever two or more series
// share the plot, and a table view carrying the exact numbers (also
// the relief for palette slots that sit under 3:1 contrast).
type chart struct {
	Title   string
	SVG     string
	Legend  []series
	Caption string
	Head    []string
	Rows    [][]string
}

// pageCSS holds both validated palettes: the light categorical slots
// against surface #fcfcfb and the same hues re-stepped for the dark
// surface #1a1a19 (dark mode is selected, not an automatic flip). All
// text wears ink tokens; series colors appear only on marks.
const pageCSS = `:root{
  --surface:#fcfcfb; --ink:#1c1b1a; --ink-muted:#6f6d66; --grid:#e5e3dc;
  --s1:#2a78d6; --s2:#eb6834; --s3:#1baf7a;
}
@media (prefers-color-scheme: dark){
  :root{
    --surface:#1a1a19; --ink:#f1efe9; --ink-muted:#a3a19a; --grid:#33322f;
    --s1:#3987e5; --s2:#d95926; --s3:#199e70;
  }
}
body{background:var(--surface);color:var(--ink);
  font:14px/1.5 system-ui,-apple-system,"Segoe UI",sans-serif;
  max-width:780px;margin:2rem auto;padding:0 1rem;}
h1{font-size:1.4rem;margin-bottom:.2rem}
h2{font-size:1.1rem;margin-top:2.2rem;border-bottom:1px solid var(--grid);padding-bottom:.3rem}
h3{font-size:.95rem;margin:1.4rem 0 .4rem}
p.sub,figcaption,p.caption{color:var(--ink-muted);font-size:.85rem}
svg{width:100%;height:auto;display:block}
svg .tick{fill:var(--ink-muted);font-size:10px}
table{border-collapse:collapse;width:100%;font-size:.85rem;margin:.6rem 0}
th{text-align:left;color:var(--ink-muted);font-weight:600}
th,td{padding:.25rem .5rem;border-bottom:1px solid var(--grid)}
td.num,th.num{text-align:right;font-variant-numeric:tabular-nums}
.legend{display:flex;gap:1rem;flex-wrap:wrap;font-size:.85rem;margin:.3rem 0}
.legend .chip{display:inline-block;width:10px;height:10px;border-radius:3px;margin-right:.35rem;vertical-align:-1px}
details>summary{cursor:pointer;color:var(--ink-muted);font-size:.85rem}
`

func esc(s string) string { return html.EscapeString(s) }

// writeChart emits one figure: heading, legend (only with ≥2 series —
// a single series is named by the title), the SVG, a collapsible table
// view, and the caption.
func writeChart(sb *strings.Builder, c chart) {
	sb.WriteString("<figure>\n<h3>" + esc(c.Title) + "</h3>\n")
	if len(c.Legend) >= 2 {
		sb.WriteString(`<div class="legend">`)
		for _, s := range c.Legend {
			fmt.Fprintf(sb, `<span><span class="chip" style="background:var(--s%d)"></span>%s</span>`,
				s.Slot, esc(s.Name))
		}
		sb.WriteString("</div>\n")
	}
	sb.WriteString(c.SVG + "\n")
	if len(c.Rows) > 0 {
		sb.WriteString("<details><summary>Table view</summary>\n<table>\n<tr>")
		for i, h := range c.Head {
			cls := ` class="num"`
			if i == 0 {
				cls = ""
			}
			sb.WriteString("<th" + cls + ">" + esc(h) + "</th>")
		}
		sb.WriteString("</tr>\n")
		for _, row := range c.Rows {
			sb.WriteString("<tr>")
			for i, cell := range row {
				cls := ` class="num"`
				if i == 0 {
					cls = ""
				}
				sb.WriteString("<td" + cls + ">" + esc(cell) + "</td>")
			}
			sb.WriteString("</tr>\n")
		}
		sb.WriteString("</table>\n</details>\n")
	}
	if c.Caption != "" {
		sb.WriteString("<figcaption>" + esc(c.Caption) + "</figcaption>\n")
	}
	sb.WriteString("</figure>\n")
}

// derivedAt reads one derived-telemetry key from a baseline's total
// row, NaN when that schema era had not grown the key yet.
func derivedAt(f *File, key string) float64 {
	if v, ok := f.Perf.Total.Derived[key]; ok {
		return v
	}
	return math.NaN()
}

func labels(files []*File) []string {
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = f.Label
	}
	return out
}

// trendChart builds a one-measure bar chart over the baseline sequence
// plus its table view.
func trendChart(files []*File, title, unit, caption string, at func(*File) float64) chart {
	s := series{Name: title, Slot: 1, Values: make([]float64, len(files))}
	rows := make([][]string, len(files))
	for i, f := range files {
		s.Values[i] = at(f)
		rows[i] = []string{f.Label, fmtNum(s.Values[i])}
	}
	return chart{
		Title:   title,
		SVG:     barChartSVG(title, unit, labels(files), []series{s}),
		Caption: caption,
		Head:    []string{"baseline", unit},
		Rows:    rows,
	}
}

// multiTrendChart builds a line chart of up to three derived keys over
// the baseline sequence; extra table columns may carry keys that are
// tabulated but not plotted (the palette holds three series).
func multiTrendChart(files []*File, title, unit, caption string, plotted []string, tabulated []string) chart {
	ss := make([]series, len(plotted))
	for j, key := range plotted {
		ss[j] = series{Name: key, Slot: j + 1, Values: make([]float64, len(files))}
		for i, f := range files {
			ss[j].Values[i] = derivedAt(f, key)
		}
	}
	head := append([]string{"baseline"}, plotted...)
	head = append(head, tabulated...)
	rows := make([][]string, len(files))
	for i, f := range files {
		row := []string{f.Label}
		for _, key := range plotted {
			row = append(row, fmtNum(derivedAt(f, key)))
		}
		for _, key := range tabulated {
			row = append(row, fmtNum(derivedAt(f, key)))
		}
		rows[i] = row
	}
	return chart{
		Title:   title,
		SVG:     lineChartSVG(title, unit, labels(files), ss),
		Legend:  ss,
		Caption: caption,
		Head:    head,
		Rows:    rows,
	}
}

// crossoverChart plots the paper's §6.4.1 scheme-crossover model: the
// minimum mask density δ*(W) = (1+1/W)/3 above which the compact
// schemes (CSS/CMS) beat SSS on local computation, per block size.
func crossoverChart() chart {
	ws := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	xs := make([]string, len(ws))
	s := series{Name: "δ*(W) = (1+1/W)/3", Slot: 1, Values: make([]float64, len(ws))}
	rows := make([][]string, len(ws))
	for i, w := range ws {
		xs[i] = strconv.Itoa(w)
		s.Values[i] = (1 + 1/float64(w)) / 3
		rows[i] = []string{xs[i], fmtNum(s.Values[i])}
	}
	return chart{
		Title: "Scheme crossover: minimum density where CSS/CMS beat SSS",
		SVG:   lineChartSVG("scheme crossover model", "density", xs, []series{s}),
		Caption: "Model from the paper's §6.4.1 cost comparison: above the curve the compact schemes win on local computation; " +
			"x is the block size W, y the mask density δ*. The packbench \"model\" experiment measures this grid empirically.",
		Head: []string{"W", "δ* (min density)"},
		Rows: rows,
	}
}

// serviceChart builds the serving-latency trend over the baselines
// that carry a service soak object (schema v7+): the deterministic
// virtual-time p50/p99/p999 of the open-loop traffic model, plus a
// table of the soak configuration and per-class service times of the
// newest such baseline.
func serviceChart(files []*File) (chart, bool) {
	var (
		xs   []string
		p50  = series{Name: "p50 µs", Slot: 1}
		p99  = series{Name: "p99 µs", Slot: 2}
		p999 = series{Name: "p999 µs", Slot: 3}
		rows [][]string
		last *File
	)
	for _, f := range files {
		sv := f.Perf.Service
		if sv == nil {
			continue
		}
		last = f
		xs = append(xs, f.Label)
		p50.Values = append(p50.Values, float64(sv.P50US))
		p99.Values = append(p99.Values, float64(sv.P99US))
		p999.Values = append(p999.Values, float64(sv.P999US))
		rows = append(rows, []string{
			f.Label, strconv.Itoa(sv.Requests), strconv.Itoa(sv.Overloaded),
			fmtNum(sv.RatePerSec), fmtNum(sv.ThroughputRPS),
			strconv.FormatInt(sv.P50US, 10), strconv.FormatInt(sv.P99US, 10),
			strconv.FormatInt(sv.P999US, 10),
		})
	}
	if len(xs) == 0 {
		return chart{}, false
	}
	sv := last.Perf.Service
	for _, c := range sv.Classes {
		rows = append(rows, []string{
			last.Label + " · " + c.Name, strconv.Itoa(c.Arrivals), "—", "—", "—",
			"—", "—", strconv.FormatUint(c.ServiceUS, 10),
		})
	}
	ss := []series{p50, p99, p999}
	return chart{
		Title:  fmt.Sprintf("Serving latency (service soak, %d workers, queue %d)", sv.Workers, sv.Queue),
		SVG:    lineChartSVG("serving latency trend", "µs", xs, ss),
		Legend: ss,
		Caption: "Virtual-time request latency of the open-loop packserve soak — deterministic for a seed, so cmd/packdiff " +
			"compares it exactly; per-class rows tabulate the newest baseline's warm service time in the last column.",
		Head: []string{"baseline / class", "requests", "overloaded", "offered rps", "throughput rps", "p50 µs", "p99 µs", "p999 µs"},
		Rows: rows,
	}, true
}

// overviewTable summarizes every loaded baseline on one row each.
func overviewTable(sb *strings.Builder, files []*File) {
	sb.WriteString("<table>\n<tr><th>baseline</th><th>schema</th>" +
		`<th class="num">experiments</th><th class="num">machine runs</th><th class="num">virtual ms</th></tr>` + "\n")
	for _, f := range files {
		nExp := 0
		for _, e := range f.Perf.Experiments {
			if !strings.HasSuffix(e.ID, "/prefetch") {
				nExp++
			}
		}
		fmt.Fprintf(sb, `<tr><td>%s</td><td>v%d</td><td class="num">%d</td><td class="num">%d</td><td class="num">%s</td></tr>`+"\n",
			esc(f.Label), f.Schema, nExp, f.Perf.Total.MachineRuns, fmtNum(f.Perf.Total.VirtualMS))
	}
	sb.WriteString("</table>\n")
}

// WriteHTML renders the loaded baselines, in the given order, into one
// self-contained HTML dashboard. Output is deterministic for the same
// inputs: no timestamps, every map walked in sorted order.
func WriteHTML(w io.Writer, title string, files []*File) error {
	if len(files) == 0 {
		return fmt.Errorf("report: no baselines to render")
	}
	var sb strings.Builder
	sb.WriteString("<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	sb.WriteString(`<meta name="viewport" content="width=device-width, initial-scale=1">` + "\n")
	sb.WriteString("<title>" + esc(title) + "</title>\n<style>\n" + pageCSS + "</style>\n</head>\n<body>\n")
	sb.WriteString("<h1>" + esc(title) + "</h1>\n")
	fmt.Fprintf(&sb, `<p class="sub">%d baselines, %s → %s · schemas packbench-perf/v%d → v%d</p>`+"\n",
		len(files), esc(files[0].Label), esc(files[len(files)-1].Label), files[0].Schema, files[len(files)-1].Schema)

	sb.WriteString("<h2>Run overview</h2>\n")
	overviewTable(&sb, files)

	sb.WriteString("<h2>Suite cost trends</h2>\n")
	writeChart(&sb, trendChart(files, "Total virtual time (cost-model checksum)", "ms",
		"Sum of emulated machine time over all runs — host-independent and bit-for-bit reproducible; cmd/packdiff compares it exactly.",
		func(f *File) float64 { return f.Perf.Total.VirtualMS }))

	sb.WriteString("<h2>Derived telemetry trends</h2>\n")
	writeChart(&sb, multiTrendChart(files, "Communication and idle fractions", "fraction",
		"Run-weighted means over each suite's machine runs (schema v3+; earlier baselines show a gap).",
		[]string{"comm_frac", "idle_frac"}, []string{"imbalance"}))
	writeChart(&sb, multiTrendChart(files, "Communication share by phase", "fraction",
		"How the communication volume splits across the PACK phases; the unplotted default-phase share is in the table view.",
		[]string{"comm_share/m2m", "comm_share/prs", "comm_share/redist"}, []string{"comm_share/default"}))

	sb.WriteString("<h2>Scheme crossover model</h2>\n")
	writeChart(&sb, crossoverChart())

	if c, ok := serviceChart(files); ok {
		sb.WriteString("<h2>Serving traffic</h2>\n")
		writeChart(&sb, c)
	}

	sb.WriteString("<p class=\"caption\">Generated by packreport from the baselines above; deterministic for the same inputs.</p>\n")
	sb.WriteString("</body>\n</html>\n")
	_, err := io.WriteString(w, sb.String())
	return err
}
