package bench

import (
	"bytes"
	"strings"
	"testing"

	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/pack"
	"packunpack/internal/sim"
)

func layout1d(n, p, w int) *dist.Layout {
	return dist.MustLayout(dist.Dim{N: n, P: p, W: w})
}

func TestRunExecuteVerified(t *testing.T) {
	l := layout1d(256, 4, 4)
	gen := mask.NewRandom(0.4, 3, 256)
	for _, mode := range []Mode{ModePack, ModeUnpack, ModeRed1, ModeRed2, ModeUnpackRedist} {
		for _, scheme := range []pack.Scheme{pack.SchemeSSS, pack.SchemeCSS} {
			if (mode == ModeUnpack || mode == ModeUnpackRedist) && scheme == pack.SchemeCMS {
				continue
			}
			r := Run{Layout: l, Gen: gen, Opt: pack.Options{Scheme: scheme}, Mode: mode, Verify: true}
			met, err := r.Execute()
			if err != nil {
				t.Fatalf("mode %v scheme %v: %v", mode, scheme, err)
			}
			if met.TotalMS <= 0 {
				t.Fatalf("mode %v: no time measured", mode)
			}
			if met.Size <= 0 {
				t.Fatalf("mode %v: no size", mode)
			}
			if met.Words <= 0 || met.Msgs <= 0 {
				t.Fatalf("mode %v: no traffic recorded", mode)
			}
		}
	}
}

func TestMetricsBreakdownConsistency(t *testing.T) {
	l := layout1d(512, 4, 8)
	gen := mask.NewRandom(0.5, 5, 512)
	met, err := Run{Layout: l, Gen: gen, Opt: pack.Options{Scheme: pack.SchemeCMS}, Mode: ModePack}.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if met.LocalMS <= 0 || met.PRSMS <= 0 || met.M2MMS <= 0 {
		t.Fatalf("missing breakdown component: %+v", met)
	}
	if met.RedistMS != 0 {
		t.Fatalf("plain pack must not book redist time: %+v", met)
	}
	// Components are per-processor maxima of disjoint phases; each
	// must be below the total.
	for _, v := range []float64{met.LocalMS, met.PRSMS, met.M2MMS} {
		if v > met.TotalMS {
			t.Fatalf("component %v exceeds total %v", v, met.TotalMS)
		}
	}
	// Redistribution pipelines must book redist time.
	met2, err := Run{Layout: layout1d(512, 4, 1), Gen: gen, Mode: ModeRed2}.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if met2.RedistMS <= 0 {
		t.Fatalf("Red.2 booked no redistribution time: %+v", met2)
	}
}

func TestRunCustomParams(t *testing.T) {
	l := layout1d(64, 4, 4)
	gen := mask.NewRandom(0.5, 5, 64)
	free, err := Run{Layout: l, Gen: gen, Mode: ModePack, Params: sim.Params{Tau: 0, Mu: 0, Delta: 0.0001}}.Execute()
	if err != nil {
		t.Fatal(err)
	}
	paid, err := Run{Layout: l, Gen: gen, Mode: ModePack}.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if free.TotalMS >= paid.TotalMS {
		t.Fatalf("near-free machine (%v) not cheaper than CM-5 params (%v)", free.TotalMS, paid.TotalMS)
	}
}

func TestModeString(t *testing.T) {
	want := map[Mode]string{ModePack: "pack", ModeUnpack: "unpack", ModeRed1: "red1", ModeRed2: "red2", Mode(7): "Mode(7)"}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("Mode(%d).String() = %q", int(m), m.String())
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Columns: []string{"a", "bb"}, Notes: []string{"hello"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"[x] demo", "a", "bb", "333", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestMsFormatting(t *testing.T) {
	if ms(123.456) != "123.5" || ms(12.345) != "12.35" || ms(1.2345) != "1.234" {
		t.Fatalf("ms formats: %s %s %s", ms(123.456), ms(12.345), ms(1.2345))
	}
}

func TestQuickSuiteProducesAllArtifacts(t *testing.T) {
	s := NewSuite(true, 1)
	reg := s.Registry()
	ids := s.ExperimentIDs()
	// The canonical id list excludes hidden experiments (run by
	// explicit id only), but every hidden id must still resolve.
	if len(ids)+len(hiddenExperiments) != len(reg) {
		t.Fatalf("id list (%d) + hidden (%d) and registry (%d) out of sync",
			len(ids), len(hiddenExperiments), len(reg))
	}
	for _, id := range ids {
		if hiddenExperiments[id] {
			t.Fatalf("hidden experiment %s leaked into the canonical id list", id)
		}
	}
	for id := range hiddenExperiments {
		if _, ok := reg[id]; !ok {
			t.Fatalf("hidden experiment %s missing from registry", id)
		}
	}
	for _, id := range []string{"fig3", "fig4", "fig5", "table1", "table2", "scale", "prs", "ablate", "model"} {
		if _, ok := reg[id]; !ok {
			t.Fatalf("experiment %s missing from registry", id)
		}
	}
	tables := sharedSerialSweep(t).all()
	if len(tables) < 8 {
		t.Fatalf("suite produced only %d tables", len(tables))
	}
	var buf bytes.Buffer
	RenderAll(&buf, tables)
	if buf.Len() == 0 {
		t.Fatal("nothing rendered")
	}
	for _, tb := range tables {
		if tb.ID == "" || tb.Title == "" || len(tb.Columns) == 0 || len(tb.Rows) == 0 {
			t.Fatalf("malformed table %+v", tb)
		}
	}
}

// TestPaperShapes asserts the qualitative claims of the paper's
// evaluation on small configurations — the reproduction's key
// regression test.
func TestPaperShapes(t *testing.T) {
	n := 4096
	gen50 := mask.NewRandom(0.5, 2, n)
	localOf := func(scheme pack.Scheme, w int) float64 {
		met, err := Run{Layout: layout1d(n, 16, w), Gen: gen50, Opt: pack.Options{Scheme: scheme}, Mode: ModePack}.Execute()
		if err != nil {
			t.Fatal(err)
		}
		return met.LocalMS
	}

	t.Run("local-comp-grows-as-W-shrinks", func(t *testing.T) {
		for _, scheme := range []pack.Scheme{pack.SchemeSSS, pack.SchemeCSS, pack.SchemeCMS} {
			cyc, blk := localOf(scheme, 1), localOf(scheme, n/16)
			if cyc <= blk {
				t.Errorf("%v: cyclic local comp (%v) should exceed block (%v)", scheme, cyc, blk)
			}
		}
	})

	t.Run("SSS-wins-at-cyclic", func(t *testing.T) {
		sss, css, cms := localOf(pack.SchemeSSS, 1), localOf(pack.SchemeCSS, 1), localOf(pack.SchemeCMS, 1)
		if sss >= css || sss >= cms {
			t.Errorf("at W=1 SSS (%v) should beat CSS (%v) and CMS (%v)", sss, css, cms)
		}
	})

	t.Run("CMS-wins-at-block-high-density", func(t *testing.T) {
		gen90 := mask.NewRandom(0.9, 2, n)
		tot := func(scheme pack.Scheme) float64 {
			met, err := Run{Layout: layout1d(n, 16, n/16), Gen: gen90, Opt: pack.Options{Scheme: scheme}, Mode: ModePack}.Execute()
			if err != nil {
				t.Fatal(err)
			}
			return met.TotalMS
		}
		sss, cms := tot(pack.SchemeSSS), tot(pack.SchemeCMS)
		if cms >= sss {
			t.Errorf("at block/90%% CMS total (%v) should beat SSS (%v)", cms, sss)
		}
	})

	t.Run("redistribution-loses-in-1d", func(t *testing.T) {
		l := layout1d(n, 16, 1)
		sss, err := Run{Layout: l, Gen: gen50, Opt: pack.Options{Scheme: pack.SchemeSSS}, Mode: ModePack}.Execute()
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeRed1, ModeRed2} {
			red, err := Run{Layout: l, Gen: gen50, Mode: mode}.Execute()
			if err != nil {
				t.Fatal(err)
			}
			if red.TotalMS <= sss.TotalMS {
				t.Errorf("1-D cyclic: %v (%v) should not beat SSS (%v)", mode, red.TotalMS, sss.TotalMS)
			}
		}
	})

	t.Run("red1-wins-in-2d-low-density", func(t *testing.T) {
		l := dist.MustLayout(dist.Dim{N: 128, P: 4, W: 1}, dist.Dim{N: 128, P: 4, W: 1})
		gen10 := mask.NewRandom(0.1, 2, 128, 128)
		sss, err := Run{Layout: l, Gen: gen10, Opt: pack.Options{Scheme: pack.SchemeSSS}, Mode: ModePack}.Execute()
		if err != nil {
			t.Fatal(err)
		}
		red1, err := Run{Layout: l, Gen: gen10, Mode: ModeRed1}.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if red1.TotalMS >= sss.TotalMS {
			t.Errorf("2-D cyclic low density: Red.1 (%v) should beat SSS (%v)", red1.TotalMS, sss.TotalMS)
		}
	})

	t.Run("unpack-comm-exceeds-pack-comm", func(t *testing.T) {
		l := layout1d(n, 16, 16)
		packM, err := Run{Layout: l, Gen: gen50, Opt: pack.Options{Scheme: pack.SchemeSSS}, Mode: ModePack}.Execute()
		if err != nil {
			t.Fatal(err)
		}
		unpackM, err := Run{Layout: l, Gen: gen50, Opt: pack.Options{Scheme: pack.SchemeSSS}, Mode: ModeUnpack}.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if unpackM.M2MMS <= packM.M2MMS {
			t.Errorf("UNPACK two-phase comm (%v) should exceed PACK comm (%v)", unpackM.M2MMS, packM.M2MMS)
		}
	})
}

// TestScaleCommunicationDominates asserts the Section 7 scaling claim:
// with the local size fixed, the communication share of PACK grows
// substantially from 16 to 256 processors.
func TestScaleCommunicationDominates(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling test skipped in -short mode")
	}
	commShare := func(n, p int) float64 {
		gen := mask.NewRandom(0.5, 3, n)
		met, err := Run{Layout: layout1d(n, p, 16), Gen: gen,
			Opt: pack.Options{Scheme: pack.SchemeCMS}, Mode: ModePack}.Execute()
		if err != nil {
			t.Fatal(err)
		}
		return (met.PRSMS + met.M2MMS) / met.TotalMS
	}
	small := commShare(16384, 16)   // local size 1024
	large := commShare(262144, 256) // same local size, 16x machine
	if large <= small {
		t.Fatalf("communication share did not grow with the machine: P=16 %.2f vs P=256 %.2f", small, large)
	}
}

// TestTablesWellFormed checks structural integrity of every quick-mode
// artifact: consistent column counts and non-empty cells.
func TestTablesWellFormed(t *testing.T) {
	for _, tb := range sharedSerialSweep(t).all() {
		for ri, row := range tb.Rows {
			if len(row) != len(tb.Columns) {
				t.Errorf("[%s] %s: row %d has %d cells for %d columns", tb.ID, tb.Title, ri, len(row), len(tb.Columns))
			}
			for ci, cell := range row {
				if cell == "" {
					t.Errorf("[%s] %s: empty cell (%d,%d)", tb.ID, tb.Title, ri, ci)
				}
			}
		}
	}
}

// TestSuiteCacheHits verifies that the measurement cache actually
// dedupes repeated configurations (fig3 and fig4 share their runs).
func TestSuiteCacheHits(t *testing.T) {
	s := NewSuite(true, 1)
	s.Fig3()
	before := s.cache.len()
	s.Fig4() // same sweep, different columns
	if s.cache.len() != before {
		t.Fatalf("fig4 added %d cache entries; it should reuse fig3's runs", s.cache.len()-before)
	}
}
