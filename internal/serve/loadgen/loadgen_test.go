package loadgen

import (
	"fmt"
	"reflect"
	"testing"

	"packunpack/internal/transport"
)

// TestSameSeedSameRun pins loadgen determinism end to end: two runs
// with the same seed produce the identical arrival schedule, spans,
// quantiles and checksum; a different seed produces a different
// schedule.
func TestSameSeedSameRun(t *testing.T) {
	cfg := Config{Seed: 42, Requests: 20_000}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%+v\nvs\n%+v", a, b)
	}
	c, err := Run(Config{Seed: 43, Requests: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if c.SumUS == a.SumUS {
		t.Fatalf("different seeds, same latency checksum %d", a.SumUS)
	}
}

// TestGoldenRun pins the exact deterministic outputs for a fixed
// (seed, config) — the golden the satellite asks for. If an
// intentional change to the cost model, the mix, or the DES shifts
// these values, update them alongside the change.
func TestGoldenRun(t *testing.T) {
	res, err := Run(Config{Seed: 1, Requests: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("admitted=%d overloaded=%d p50=%d p99=%d p999=%d sum=%d duration=%d rate=%.3f",
		res.Admitted, res.Overloaded, res.P50US, res.P99US, res.P999US, res.SumUS, res.DurationUS, res.RatePerSec)
	const want = "admitted=50000 overloaded=0 p50=1215 p99=4095 p999=5119 sum=74113185 duration=12165560 rate=4099.561"
	if got != want {
		t.Fatalf("golden drift:\n got %s\nwant %s", got, want)
	}
	if len(res.Spans) != 256 {
		t.Fatalf("retained %d spans, want 256", len(res.Spans))
	}
}

// TestOverloadAtSaturation drives the model far past capacity and
// checks the admission accounting.
func TestOverloadAtSaturation(t *testing.T) {
	res, err := Run(Config{Seed: 7, Requests: 30_000, RatePerSec: 1e9, Workers: 2, Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overloaded == 0 {
		t.Fatal("1 GHz arrivals on 2 workers never overloaded")
	}
	if res.Admitted+res.Overloaded != res.Requests {
		t.Fatalf("admitted %d + overloaded %d != %d requests", res.Admitted, res.Overloaded, res.Requests)
	}
	var arrivals int
	for _, c := range res.Classes {
		arrivals += c.Arrivals
	}
	if arrivals != res.Requests {
		t.Fatalf("class arrivals sum to %d, want %d", arrivals, res.Requests)
	}
}

// TestExecuteSoak runs a small execute-phase soak: every request's
// response byte-verified against its own sequential reference.
func TestExecuteSoak(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 60
	}
	res, err := Run(Config{Seed: 3, Requests: n, Execute: true, Workers: 4, Queue: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != n {
		t.Fatalf("executed %d of %d", res.Executed, n)
	}
}

// TestRunWallSmoke paces a short schedule against the real backend.
func TestRunWallSmoke(t *testing.T) {
	res, err := RunWall(Config{
		Seed: 5, Requests: 40, Workers: 2, Queue: 8,
		Backend: transport.BackendReal, RatePerSec: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted+res.Overloaded != res.Requests {
		t.Fatalf("admitted %d + overloaded %d != %d", res.Admitted, res.Overloaded, res.Requests)
	}
	if res.Admitted == 0 {
		t.Fatal("no request admitted")
	}
	if res.P50US <= 0 {
		t.Fatal("no wall latency observed")
	}
}
