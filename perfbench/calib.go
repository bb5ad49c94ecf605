package main

// Host-speed calibration. The benchmark runs on shared virtual machines
// whose speed drifts while nothing in the program changes: on the
// 2-vCPU tuning host the same reproduce round took 115 ms in some
// spells and 230 ms in others, seconds to minutes apart, and a P=2
// pack round trip moved between 45 and 70 ms with it. A fixed kernel
// of the benchmark's own, timed between ops, slows down in the same
// spells, so each op's latency is reported relative to the kernel's
// time at that moment. The kernel never calls the program, so a change
// to the program moves the normalised figures exactly as it moves the
// wall times.

import (
	"sort"
	"time"
)

// calibRefMS is the kernel time the normalised latencies are scaled to:
// op_ms_* = wall ms × calibRefMS / kernel ms at the op. It is a fixed
// constant, about the kernel's median on the tuning host, so the
// normalised figures read close to wall times there.
const calibRefMS = 16.0

// calibEvery is how often a sample is taken between ops; calibReps
// kernel runs make one sample (their median).
const (
	calibEvery = time.Second
	calibReps  = 3
)

// calibrator owns the kernel's buffers and its ping-pong partner.
type calibrator struct {
	stream     []uint64 // streamed read-modify-write, larger than L2
	ring       []uint32 // one random cycle, walked with writes
	ping, pong chan int
	sink       uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{stream: make([]uint64, 2<<20), ring: make([]uint32, 1<<20), ping: make(chan int), pong: make(chan int)}
	r := newRNG(0xca11b, 1)
	p := perm(r, len(c.ring))
	for i := range p {
		c.ring[p[i]] = uint32(p[(i+1)%len(p)])
	}
	go func() {
		for v := range c.ping {
			c.pong <- v
		}
	}()
	return c
}

// close stops the ping-pong partner.
func (c *calibrator) close() { close(c.ping) }

type calibNode struct {
	next *calibNode
	v    [3]int
}

// kernel is one run of the fixed calibration work: a dependent integer
// chain, a stream over 16 MB, a random walk over 4 MB, small-object
// allocation with a map, and goroutine hand-offs — the kinds of work
// the workloads' ops are made of.
func (c *calibrator) kernel() {
	x := c.sink | 1
	for i := 0; i < 1_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 13
	}
	var s uint64
	for i := range c.stream {
		s += c.stream[i]
		c.stream[i] = s
	}
	j := uint32(x % uint64(len(c.ring)))
	for i := 0; i < 40_000; i++ {
		k := c.ring[j]
		c.ring[j] = k // keep the cycle, dirty the line
		j = k
	}
	m := make(map[int]*calibNode, 64)
	var head *calibNode
	for i := 0; i < 20_000; i++ {
		head = &calibNode{next: head, v: [3]int{i}}
		m[i] = head
	}
	for i := 0; i < 2_000; i++ {
		c.ping <- i
		<-c.pong
	}
	c.sink = x + s + uint64(j) + uint64(len(m))
}

// sample returns the median of calibReps kernel runs, in ms.
func (c *calibrator) sample() float64 {
	t := make([]float64, calibReps)
	for i := range t {
		t0 := time.Now()
		c.kernel()
		t[i] = ms(time.Since(t0))
	}
	sort.Float64s(t)
	return t[calibReps/2]
}

// hostNorm collects an untraced window's op latencies and kernel
// samples taken between ops, one at the start and then one every
// calibEvery, and normalises each op by the mean of the two samples
// around it.
type hostNorm struct {
	cal   *calibrator
	next  time.Time
	k     []float64 // kernel samples, ms
	raw   []float64 // op latencies, ms
	after []int     // per op: how many samples were taken before it
}

func newHostNorm() *hostNorm {
	n := &hostNorm{cal: newCalibrator()}
	n.take()
	return n
}

func (n *hostNorm) take() {
	n.k = append(n.k, n.cal.sample())
	n.next = time.Now().Add(calibEvery)
}

// due reports whether the current segment is over.
func (n *hostNorm) due() bool { return !time.Now().Before(n.next) }

// add records one op's latency and takes a sample if one is due.
func (n *hostNorm) add(latMS float64) {
	n.addSegment([]float64{latMS})
	if n.due() {
		n.take()
	}
}

// addSegment records latencies measured since the last sample.
func (n *hostNorm) addSegment(lat []float64) {
	for _, l := range lat {
		n.raw = append(n.raw, l)
		n.after = append(n.after, len(n.k))
	}
}

// finish takes the closing sample, stops the kernel's partner and
// returns the normalised latencies.
func (n *hostNorm) finish() []float64 {
	n.take()
	n.cal.close()
	return normalise(n.raw, n.after, n.k)
}

// normalise scales each latency raw[i] by calibRefMS over the mean of
// the kernel samples k[after[i]-1] and k[after[i]], the last one taken
// before the op and the first one after it.
func normalise(raw []float64, after []int, k []float64) []float64 {
	out := make([]float64, len(raw))
	for i, l := range raw {
		a := after[i]
		out[i] = l * calibRefMS / ((k[a-1] + k[a]) / 2)
	}
	return out
}
