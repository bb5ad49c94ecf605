package bench

import (
	"fmt"

	"packunpack/internal/mask"
	"packunpack/internal/pack"
)

// Model regenerates Section 6.4's local-computation model check. The
// paper predicts that the compact storage scheme beats the simple
// storage scheme on local computation when
//
//	L + C <= 3*E_i   i.e.   1 + 1/W <= 3*delta
//
// (L local size, C = L/W slices, E_i = delta*L selected elements), so
// for each block size W there is a predicted minimum mask density
// delta*(W) = (1 + 1/W)/3 above which CSS should win. The experiment
// tabulates that prediction against the measured winner across the
// density grid, plus the analogous measurement for CMS.
func (s Suite) Model() []*Table { return s.parallelize(Suite.model) }

func (s Suite) model() []*Table {
	n := 16384
	if s.Quick {
		n = 4096
	}
	shape := []int{n}
	densities := []float64{0.10, 0.30, 0.50, 0.70, 0.90}
	if s.Quick {
		densities = []float64{0.10, 0.50, 0.90}
	}

	t := &Table{
		ID:      "model",
		Title:   fmt.Sprintf("Section 6.4 model check: min density at which CSS/CMS beat SSS on local computation, 1-D N=%d, P=16", n),
		Columns: []string{"W", "model delta*(W)", "measured CSS", "measured CMS"},
		Notes: []string{
			"model: CSS wins when density >= (1+1/W)/3 (paper eq. in 6.4.1); '-' = no density in the grid wins",
			"expected shape: both thresholds fall as W grows; the model's flat-delta world is optimistic for CSS at small W",
		},
	}

	// The whole ascending density sweep is measured before the first
	// winner is taken, as in Suite.beta.
	minWinningDensity := func(w int, scheme pack.Scheme) string {
		first := "-"
		for _, d := range densities {
			gen := mask.NewRandom(d, s.Seed+uint64(d*100), shape...)
			sss := s.measure(Run{Layout: oneD(n, 16, w), Gen: gen, Opt: pack.Options{Scheme: pack.SchemeSSS}, Mode: ModePack})
			ch := s.measure(Run{Layout: oneD(n, 16, w), Gen: gen, Opt: pack.Options{Scheme: scheme}, Mode: ModePack})
			if first == "-" && ch.LocalMS <= sss.LocalMS {
				first = fmt.Sprintf("%.0f%%", d*100)
			}
		}
		return first
	}

	for _, w := range []int{1, 2, 4, 8, 16, 64, 256} {
		if w > n/16 {
			continue
		}
		model := (1 + 1/float64(w)) / 3
		modelStr := fmt.Sprintf("%.0f%%", model*100)
		if model > 1 {
			modelStr = ">100% (never)"
		}
		t.AddRow(fmt.Sprint(w), modelStr, minWinningDensity(w, pack.SchemeCSS), minWinningDensity(w, pack.SchemeCMS))
	}
	return []*Table{t}
}
