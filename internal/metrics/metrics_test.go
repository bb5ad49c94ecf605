package metrics

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildFixture populates a registry with a deterministic set of events
// — the shared input for the golden-exposition and snapshot tests.
func buildFixture() *Registry {
	r := NewRegistry()
	msgs := r.Counter("transport_link_msgs_total", "messages per (src,dst) link", "src", "dst")
	msgs.With("0", "1").Add(3)
	msgs.With("1", "0").Add(2)
	r.Counter("pack_calls_total", "pack/unpack invocations", "op").With("pack").Inc()
	depth := r.Gauge("queue_depth_hw", "SPSC queue high-water mark").With()
	depth.SetMax(7)
	depth.SetMax(4) // lower: must not regress the mark
	lat := r.Histogram("recv_wait_us", "receive wait time in microseconds").With()
	for v := int64(0); v < 100; v++ {
		lat.Observe(v)
	}
	lat.Observe(100000)
	return r
}

func TestBucketRoundTrip(t *testing.T) {
	vals := []int64{0, 1, 15, 16, 17, 31, 32, 33, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, math.MaxInt64}
	for v := int64(2); v < 1<<30; v = v*3 + 7 {
		vals = append(vals, v, v-1, v+1)
	}
	prev := -1
	for _, v := range vals {
		i := bucketIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		if lo, hi := bucketLower(i), bucketUpper(i); v < lo || v > hi {
			t.Errorf("value %d landed in bucket %d = [%d,%d]", v, i, lo, hi)
		}
		_ = prev
	}
	// Bucket bounds tile the axis: upper(i)+1 == lower(i+1).
	for i := 0; i < histBuckets-1; i++ {
		if bucketUpper(i)+1 != bucketLower(i+1) {
			t.Fatalf("gap between bucket %d (upper %d) and %d (lower %d)", i, bucketUpper(i), i+1, bucketLower(i+1))
		}
	}
	if bucketIndex(math.MaxInt64) != histBuckets-1 {
		t.Fatalf("MaxInt64 maps to bucket %d, want last (%d)", bucketIndex(math.MaxInt64), histBuckets-1)
	}
}

func TestQuantilesExactInLinearRegion(t *testing.T) {
	h := NewRegistry().Histogram("h", "").With()
	for v := int64(0); v < histSub; v++ {
		h.Observe(v)
	}
	// 16 observations 0..15: rank(0.5)=8 → value 7 (0-indexed 8th).
	if got := h.Quantile(0.5); got != 7 {
		t.Errorf("p50 = %d, want 7", got)
	}
	if got := h.Quantile(1.0); got != 15 {
		t.Errorf("p100 = %d, want 15", got)
	}
	if got := h.Quantile(0); got != 0 {
		t.Errorf("p0 = %d, want 0", got)
	}
}

func TestQuantileResolutionBound(t *testing.T) {
	h := NewRegistry().Histogram("h", "").With()
	const v = 123457
	h.Observe(v)
	got := h.Quantile(0.99)
	if got < v || float64(got) > float64(v)*(1+1.0/histSub)+1 {
		t.Errorf("p99 of single observation %d = %d, outside resolution bound", v, got)
	}
}

func TestQuantileEmptyHistogram(t *testing.T) {
	h := NewRegistry().Histogram("h", "").With()
	for _, q := range []float64{0, 0.5, 0.999, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("Quantile(%v) on empty histogram = %d, want 0", q, got)
		}
	}
	if got := h.Count(); got != 0 {
		t.Errorf("Count on empty histogram = %d, want 0", got)
	}
	if got := h.Sum(); got != 0 {
		t.Errorf("Sum on empty histogram = %d, want 0", got)
	}
}

func TestQuantileSingleObservation(t *testing.T) {
	h := NewRegistry().Histogram("h", "").With()
	const v = 7 // linear region: every quantile is exactly the value
	h.Observe(v)
	for _, q := range []float64{0, 0.25, 0.5, 0.999, 1} {
		if got := h.Quantile(q); got != v {
			t.Errorf("Quantile(%v) of single observation %d = %d, want %d", q, v, got, v)
		}
	}
	if got, want := h.Count(), int64(1); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
	if got, want := h.Sum(), int64(v); got != want {
		t.Errorf("Sum = %d, want %d", got, want)
	}
}

func TestQuantileAllMassInOverflowBucket(t *testing.T) {
	// MaxInt64 lands in the final bucket, whose upper bound clamps to
	// MaxInt64 rather than wrapping: every quantile reports that bound.
	h := NewRegistry().Histogram("h", "").With()
	for i := 0; i < 3; i++ {
		h.Observe(math.MaxInt64)
	}
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != math.MaxInt64 {
			t.Errorf("Quantile(%v) with all mass in top bucket = %d, want MaxInt64", q, got)
		}
	}
	if got, want := h.Count(), int64(3); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
}

func TestObserveNegativeClampsToZero(t *testing.T) {
	h := NewRegistry().Histogram("h", "").With()
	h.Observe(-5)
	if got := h.Quantile(1); got != 0 {
		t.Errorf("Quantile(1) after negative observation = %d, want 0 (clamped)", got)
	}
	if got := h.Sum(); got != 0 {
		t.Errorf("Sum after negative observation = %d, want 0 (clamped)", got)
	}
	if got, want := h.Count(), int64(1); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
}

func TestCounterShards(t *testing.T) {
	c := NewRegistry().Counter("c", "").With()
	for i := 0; i < numShards*3; i++ {
		c.AddShard(i, 1)
	}
	c.Add(2)
	if got := c.Value(); got != numShards*3+2 {
		t.Errorf("Value = %d, want %d", got, numShards*3+2)
	}
}

func TestFamilySchemaMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "", "a")
	defer func() {
		if recover() == nil {
			t.Error("re-registering x as gauge did not panic")
		}
	}()
	r.Gauge("x", "", "a")
}

func TestSnapshotLookup(t *testing.T) {
	snap := buildFixture().Snapshot()
	f, ok := snap.Family("transport_link_msgs_total")
	if !ok {
		t.Fatal("family missing from snapshot")
	}
	if got := f.Total(); got != 5 {
		t.Errorf("Total = %d, want 5", got)
	}
	c, ok := f.Child("0", "1")
	if !ok || c.Value != 3 {
		t.Errorf("child (0,1) = %+v ok=%v, want value 3", c, ok)
	}
	if _, ok := f.Child("9", "9"); ok {
		t.Error("nonexistent child reported present")
	}
	hf, _ := snap.Family("recv_wait_us")
	hc, ok := hf.Child()
	if !ok || hc.Count != 101 {
		t.Fatalf("histogram child count = %d ok=%v, want 101", hc.Count, ok)
	}
	// Values 50 and 51 share the [50,51] bucket (first two-wide octave),
	// so the quantile reports the bucket's upper bound.
	if got := hc.Quantile(0.5); got != 51 {
		t.Errorf("snapshot p50 = %d, want 51", got)
	}
}

func TestGoldenPrometheusExposition(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, buildFixture()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestExpvarJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteExpvarJSON(&buf, buildFixture()); err != nil {
		t.Fatal(err)
	}
	var doc map[string]map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("expvar output is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if _, ok := doc["counters"]["transport_link_msgs_total{0,1}"]; !ok {
		t.Errorf("counters missing labeled key: %s", buf.Bytes())
	}
	var buf2 bytes.Buffer
	if err := WriteExpvarJSON(&buf2, buildFixture()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("expvar JSON not deterministic across identical registries")
	}
}

func TestServe(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", buildFixture())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for path, want := range map[string]string{
		"/metrics": "transport_link_msgs_total",
		"/vars":    "histograms",
	} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !bytes.Contains(body, []byte(want)) {
			t.Errorf("GET %s: status %d, body %q lacks %q", path, resp.StatusCode, body, want)
		}
	}
}

// TestServeNilRegistry pins that the flag plumbing can start the
// endpoint unconditionally: a nil registry serves empty documents.
func TestServeNilRegistry(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("nil-registry /metrics status = %d", resp.StatusCode)
	}
}

// TestMetricsNilFastPath is the zero-overhead regression guard for the
// disabled case: every handle chain off a nil registry must be a
// no-op and must not allocate. This is the contract that lets the
// transport/pack/comm hot paths stay uninstrumented-speed when
// telemetry is off.
func TestMetricsNilFastPath(t *testing.T) {
	var r *Registry
	cv := r.Counter("c", "", "l")
	gv := r.Gauge("g", "")
	hv := r.Histogram("h", "")
	c, g, h := cv.With("x"), gv.With(), hv.With()
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry produced non-nil children")
	}
	if n := testing.AllocsPerRun(100, func() {
		c.Add(1)
		c.Inc()
		c.AddShard(3, 1)
		g.Set(5)
		g.SetMax(9)
		g.Add(1)
		h.Observe(42)
	}); n != 0 {
		t.Errorf("disabled hot-path ops allocate: %v allocs/op", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = r.Counter("c", "", "l").With("x")
	}); n != 0 {
		t.Errorf("disabled handle resolution allocates: %v allocs/op", n)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil handles report nonzero readings")
	}
	if snap := r.Snapshot(); len(snap.Families) != 0 {
		t.Error("nil registry snapshot not empty")
	}
}

// TestEnabledHotPathAllocs pins that the *enabled* steady state (handles
// pre-resolved) does not allocate either — sharded atomics only.
func TestEnabledHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "", "dst").With("3")
	h := r.Histogram("h", "").With()
	g := r.Gauge("g", "")
	gc := g.With()
	if n := testing.AllocsPerRun(100, func() {
		c.AddShard(1, 8)
		gc.SetMax(12)
		h.Observe(99)
	}); n != 0 {
		t.Errorf("enabled steady-state ops allocate: %v allocs/op", n)
	}
	// Single-label With on an existing child is also allocation-free
	// (the label value itself is the map key).
	if n := testing.AllocsPerRun(100, func() {
		r.Counter("c", "", "dst").With("3").Inc()
	}); n > 1 {
		t.Errorf("single-label With allocates %v/op, want <= 1", n)
	}
}

func BenchmarkCounterDisabled(b *testing.B) {
	var r *Registry
	c := r.Counter("c", "").With()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	c := NewRegistry().Counter("c", "").With()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.AddShard(1, 1)
	}
}

func BenchmarkHistogramDisabled(b *testing.B) {
	var r *Registry
	h := r.Histogram("h", "").With()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkHistogramEnabled(b *testing.B) {
	h := NewRegistry().Histogram("h", "").With()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
