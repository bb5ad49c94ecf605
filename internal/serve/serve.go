// Package serve wraps the PACK/UNPACK library in a long-running
// concurrent service: many independent jobs — each a whole distributed
// PACK or UNPACK problem — are multiplexed over a shared worker pool,
// with a bounded admission queue, typed backpressure, per-tenant plan
// caches, and an opt-in chaos mode riding the fault-injection
// machinery of internal/sim.
//
// The shape follows ViPIOS (a client–server system wrapped around
// exactly this kind of data-redistribution kernel) and the
// group-communication-API framing of the Scala HPC work: the service
// boundary takes global problems, the library underneath runs them as
// SPMD machine executions on either transport backend.
//
//	srv, _ := serve.New(serve.Config{Workers: 8, Queue: 256})
//	fut, err := srv.Submit(&serve.Job{Tenant: "t0", Kind: serve.JobPack,
//	    Layout: layout, Global: data, Mask: mask})
//	if serve.IsOverloaded(err) { /* back off for err.RetryAfter */ }
//	resp, err := fut.Wait()
//	// resp.Vector is the packed result, byte-identical to the
//	// sequential reference internal/seq.Pack(data, mask).
//
// Latency is accounted on two clocks (DESIGN.md §16): every response
// carries wall-clock queue and service durations (what an operator
// sees), and — on the sim backend — the virtual makespan of the
// machine run (what the cost model predicts, bit-for-bit reproducible
// and therefore gateable). The two never mix. The service keeps no
// metrics of its own: these per-job figures, the typed ErrOverloaded
// and TenantPlanStats are all it reports.
package serve

import (
	"errors"
	"fmt"
	"time"

	"packunpack/internal/dist"
	"packunpack/internal/pack"
)

// JobKind selects the operation a job performs.
type JobKind uint8

const (
	// JobPack gathers the masked elements of the distributed array
	// into a packed vector.
	JobPack JobKind = iota
	// JobUnpack scatters a vector back into an array under the mask.
	JobUnpack
)

func (k JobKind) String() string {
	switch k {
	case JobPack:
		return "pack"
	case JobUnpack:
		return "unpack"
	}
	return fmt.Sprintf("JobKind(%d)", int(k))
}

// Job is one independent PACK/UNPACK request. The client hands the
// service the global problem; the service scatters it over the
// machine's processors, runs the distributed algorithm, and gathers
// the result back. Jobs are immutable once submitted: the server reads
// but never writes the slices, and the response buffers are freshly
// allocated, so a tenant can never observe a neighbour's data.
type Job struct {
	// Tenant names the plan-cache domain this job shares: all jobs of
	// one tenant compile into and hit the same PlanCache (repeat mask
	// shapes amortize ranking to zero), while distinct tenants never
	// share fingerprints. Empty is a valid tenant name.
	Tenant string
	// Kind selects PACK or UNPACK.
	Kind JobKind
	// Layout is the block-cyclic distribution of the array. The
	// machine size is Layout.Procs().
	Layout *dist.Layout
	// Global is the global array in row-major order: the data to pack,
	// or UNPACK's field array (unselected positions keep its values).
	Global []int
	// Mask is the global mask, conformable with Global.
	Mask []bool
	// Vector is UNPACK's global input vector; it must hold at least as
	// many elements as the mask selects. Ignored by JobPack.
	Vector []int
	// Scheme selects the storage/message scheme (SSS/CSS/CMS; CMS is
	// PACK-only and falls back to CSS for UNPACK, matching the paper).
	Scheme pack.Scheme
	// VectorW is the block size of the packed/input vector's
	// distribution; 0 is the paper's block default.
	VectorW int

	// gate, when non-nil, stalls the job at execution start until the
	// channel closes; the worker first closes held, so a caller can
	// wait until the job occupies it. Admission/backpressure tests use
	// the pair to hold workers busy deterministically; there is no
	// exported way to set them.
	gate <-chan struct{}
	held chan struct{}
}

// Response is the outcome of one job. All result buffers are owned by
// the caller (never aliased by the server or other jobs).
type Response struct {
	// Vector is the packed result vector (JobPack), exactly Count
	// elements.
	Vector []int
	// Array is the unpacked global array (JobUnpack), conformable with
	// the job's Global.
	Array []int
	// Count is the number of selected mask elements.
	Count int

	// Queue and Service are the wall-clock durations the job spent
	// waiting for a worker and executing — the operator's clock.
	Queue   time.Duration
	Service time.Duration
	// VirtualUS is the virtual makespan of the machine run in
	// microseconds — the cost model's clock, bit-for-bit reproducible
	// for the same job on the sim backend, and exactly 0 on the real
	// backend (where Service is the measurement).
	VirtualUS float64
}

// ErrOverloaded is the typed backpressure error: the admission queue
// was full at Submit. The job was NOT accepted; retry after the hint.
type ErrOverloaded struct {
	// Queued and Capacity describe the admission queue at rejection.
	Queued, Capacity int
	// RetryAfter estimates when a slot should free up: the current
	// backlog divided by the pool's observed service rate (a fixed
	// fallback before any job has completed). A hint, not a promise.
	RetryAfter time.Duration
}

func (e *ErrOverloaded) Error() string {
	return fmt.Sprintf("serve: overloaded: admission queue full (%d/%d); retry after %v",
		e.Queued, e.Capacity, e.RetryAfter)
}

// IsOverloaded reports whether err is (or wraps) an ErrOverloaded.
func IsOverloaded(err error) bool {
	var o *ErrOverloaded
	return errors.As(err, &o)
}

// ErrClosed is returned by Submit after Close started: the server is
// draining and admits no new work.
var ErrClosed = errors.New("serve: server closed")

// ErrBadJob wraps job validation failures (nil layout, size
// mismatches, short vectors). The job was rejected before admission.
var ErrBadJob = errors.New("serve: invalid job")
