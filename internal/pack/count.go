package pack

import (
	"fmt"

	"packunpack/internal/comm"
	"packunpack/internal/dist"
	"packunpack/internal/transport"
)

// Count computes the number of selected elements — the Fortran 90
// COUNT intrinsic. It is the cheap sibling of the ranking stage: one
// local mask scan and a single-word reduction-sum, with no
// per-dimension base-rank arrays and no redistribution. Every
// processor receives the global count.
func Count(p transport.Endpoint, l *dist.Layout, m []bool) (int, error) {
	if len(m) != l.LocalSize() {
		return 0, fmt.Errorf("pack: local mask has %d elements, layout needs %d", len(m), l.LocalSize())
	}
	if p.NProcs() != l.Procs() {
		return 0, fmt.Errorf("pack: machine has %d processors but layout needs %d", p.NProcs(), l.Procs())
	}
	return countSelected(p, m), nil
}

// CountGeneral is Count for ragged layouts (arbitrary extents).
func CountGeneral(p transport.Endpoint, gl *dist.GeneralLayout, m []bool) (int, error) {
	if want := gl.LocalSizeAt(p.Rank()); len(m) != want {
		return 0, fmt.Errorf("pack: ragged local mask has %d elements, layout needs %d", len(m), want)
	}
	if p.NProcs() != gl.Procs() {
		return 0, fmt.Errorf("pack: machine has %d processors but layout needs %d", p.NProcs(), gl.Procs())
	}
	return countSelected(p, m), nil
}

// countSelected is COUNT after its input checks: the local mask scan
// and the single-word reduction-sum.
func countSelected(p transport.Endpoint, m []bool) int {
	n := 0
	for _, sel := range m {
		if sel {
			n++
		}
	}
	p.Charge(len(m))
	_, total := comm.World(p).PrefixReductionSum([]int{n}, comm.PRSDirect)
	return total[0]
}
