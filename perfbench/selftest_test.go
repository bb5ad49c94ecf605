package main

// Self-test: a tiny-size smoke run of every workload, untraced and
// traced. It checks that exactly the metrics BENCHMARK.json declares
// print with their declared units, that an injected wrong element is
// caught as a failed op, that every traced op's buckets sum to its
// time, and that each traced metric names where it was measured. Run
// it with `go test` inside perfbench/.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	pu "packunpack"
)

var workloads = []string{"pack-cold", "pack-warm", "serve"}

type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// TestMain runs the self-test bound to one CPU, as the benchmark runs.
func TestMain(m *testing.M) {
	runOnOneCPU()
	runtime.GOMAXPROCS(1)
	os.Exit(m.Run())
}

func smoke(t *testing.T, workload string, trace bool) (result, *report) {
	t.Helper()
	cfg := runConfig{workload: workload, seed: 7, seconds: 0.3, trace: trace, size: "tiny", spansDir: t.TempDir()}
	rep, err := run(cfg)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	var buf bytes.Buffer
	if err := emit(&buf, rep); err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	return res, rep
}

func TestDeclarationMatchesCode(t *testing.T) {
	d := loadDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, workloads)
	}
	var e2e, layer []string
	for _, m := range d.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range d.PerLayer {
		layer = append(layer, m.Name)
	}
	if strings.Join(e2e, ",") != strings.Join(endToEndMetrics, ",") {
		t.Errorf("end_to_end %v, code %v", e2e, endToEndMetrics)
	}
	if strings.Join(layer, ",") != strings.Join(perLayerMetrics, ",") {
		t.Errorf("per_layer %v, code %v", layer, perLayerMetrics)
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	d := loadDeclared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, rep := smoke(t, w, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w, trace, m.Name, got.Value)
				}
			}
			if !trace {
				for _, m := range endToEndMetrics {
					if res.Metrics[m].Value <= 0 {
						t.Errorf("%s: %s = %v, end-to-end metrics are never 0", w, m, res.Metrics[m].Value)
					}
				}
				continue
			}
			checkAttribution(t, w, res.Metrics)
			checkSources(t, w, rep.prov)
		}
	}
}

// checkAttribution bounds the remainder a traced run leaves
// unattributed. Machine-run ops (pack-*) leave only the benchmark's
// glue between calls; serve attributes against a separate replay, so
// its remainder may take either sign. That every op's buckets add up
// to the op exactly is TestTracedOpsSumExactly's job.
func checkAttribution(t *testing.T, w string, m map[string]metric) {
	t.Helper()
	lo, hi := 0.0, 0.05
	if w == "serve" {
		lo, hi = -0.5, 0.5
	}
	if f := m["attrib.unattributed_frac"].Value; f < lo || f > hi {
		t.Errorf("%s: unattributed share %v, want it in [%v, %v]", w, f, lo, hi)
	}
}

// checkOpsSum checks that every traced op's buckets, the glue included,
// add up to the op's call→return time.
func checkOpsSum(t *testing.T, what string, ops []tracedOp) {
	t.Helper()
	if len(ops) == 0 {
		t.Fatalf("%s: no traced ops", what)
	}
	for _, op := range ops {
		bd := attribute(op)
		total := 0.0
		for _, b := range opBuckets {
			total += bd.buckets[b]
		}
		if math.Abs(total-bd.opUS) > 1e-9*bd.opUS {
			t.Errorf("%s op %d: buckets %.3f µs for an op of %.3f µs", what, op.id, total, bd.opUS)
		}
	}
}

// TestTracedOpsSumExactly traces real round trips (cold and warm, on
// the real backend and the emulator) and serve's replayed jobs.
func TestTracedOpsSumExactly(t *testing.T) {
	real, err := newRealMachine()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := newCoopMachine()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name string
		m    pu.ParallelMachine
	}{{"real", real}, {"sim", sim}} {
		for _, warm := range []bool{false, true} {
			st, err := setUpPack(7, packSizes["tiny"], warm)
			if err != nil {
				t.Fatal(err)
			}
			st.m = m.m
			st.rt = newRoundTrip(m.m, st.in, st.cache)
			tl := tally{corruptAt: -1}
			tr := newTracer(procs)
			st.opLoop(50*time.Millisecond, &tl, tr, &breakdownSum{}, nil)
			if tl.failed != 0 {
				t.Fatalf("%s warm=%v: %d failed ops", m.name, warm, tl.failed)
			}
			checkOpsSum(t, fmt.Sprintf("%s warm=%v", m.name, warm), tr.ops)
		}
	}
	st, err := setUpServe(7, serveSizes["tiny"], 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer st.srv.Close()
	tl := tally{corruptAt: -1}
	rr, err := st.replay(&tl)
	if err != nil || tl.failed != 0 {
		t.Fatalf("replay: %v, %d failed", err, tl.failed)
	}
	checkOpsSum(t, "serve replay", rr.ops)
}

// checkSources: every per-layer metric of a traced run names its
// source, and bypassed_layers lists exactly those not measured on the
// workload's own op stream.
func checkSources(t *testing.T, w string, p provenance) {
	t.Helper()
	var off []string
	for _, n := range perLayerMetrics {
		src, ok := p.MetricSources[n]
		if !ok || src == "" {
			t.Errorf("%s: %s has no source", w, n)
		}
		if src != srcPath {
			off = append(off, n)
		}
	}
	if strings.Join(off, ",") != strings.Join(p.Bypassed, ",") {
		t.Errorf("%s: bypassed_layers %v, want %v", w, p.Bypassed, off)
	}
}

func TestInjectedWrongElementIsCaught(t *testing.T) {
	defer func(old int) { corruptAttempt = old }(corruptAttempt)
	for _, w := range workloads {
		corruptAttempt = 0
		res, _ := smoke(t, w, false)
		if res.Failed != 1 || res.Correct {
			t.Errorf("%s: injected wrong element gave failed=%d correct=%v, want one failed op", w, res.Failed, res.Correct)
		}
	}
}

func TestAttributeSplitsAnOpExactly(t *testing.T) {
	// One rank, one cached PACK call that misses: fingerprint, agreement
	// PRS (with a send and a blocked receive), compile scan, ranking PRS,
	// composition, all-to-all, placement.
	ev := []event{
		{10, evBodyStart, ""}, {12, evCallStart, "pack"},
		{20, evPhase, "prs"}, {21, evSendStart, ""}, {23, evSendEnd, ""}, {24, evRecvStart, ""}, {30, evRecvEnd, ""}, {31, evPhase, "default"},
		{40, evPhase, "prs"}, {45, evPhase, "default"},
		{60, evPhase, "m2m"}, {70, evPhase, "default"},
		{75, evCallEnd, "pack"}, {77, evBodyEnd, ""},
	}
	bd := attribute(tracedOp{start: 0, end: 80, ranks: [][]event{ev}, cached: true, localSize: 100})
	want := map[string]float64{
		bRunJoin: 13, bFingerprint: 8, bSend: 2, bRecvWait: 6, bPRS: 1 + 1 + 1 + 5, bScan: 9,
		bCompose: 15, bA2A: 10, bPlace: 5, bGlue: 2 + 2,
	}
	total := 0.0
	for k, v := range want {
		if got := bd.buckets[k] * 1e3; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v ns, want %v", k, got, v)
		}
		total += v
	}
	if total != 80 || bd.opUS*1e3 != 80 {
		t.Errorf("buckets sum to %v ns, op is %v ns", total, bd.opUS*1e3)
	}
	if bd.scanElem != 100 {
		t.Errorf("a missing cached call ranks its %d elements, got %v", 100, bd.scanElem)
	}
}

// TestNormaliseUsesSamplesAroundEachOp checks the host-speed scaling:
// an op is divided by the mean of the kernel samples on either side of
// it, so the same op measured while the host ran at half speed (the
// kernel took twice as long) reads the same.
func TestNormaliseUsesSamplesAroundEachOp(t *testing.T) {
	k := []float64{calibRefMS, calibRefMS, 2 * calibRefMS, 2 * calibRefMS}
	raw := []float64{10, 10, 15, 20, 20}
	after := []int{1, 1, 2, 3, 3}
	got := normalise(raw, after, k)
	want := []float64{10, 10, 10, 10, 10}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("op %d: normalised %v, want %v", i, got[i], want[i])
		}
	}
}
