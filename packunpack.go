// Package packunpack is a Go reproduction of the parallel PACK/UNPACK
// algorithms of Bae and Ranka, "PACK/UNPACK on Coarse-Grained
// Distributed Memory Parallel Machines" (IPPS 1996).
//
// PACK and UNPACK are the Fortran 90 / HPF array construction
// intrinsics: PACK gathers the elements of an array selected by a
// logical mask into a vector, UNPACK scatters a vector back into an
// array under a mask. On a distributed-memory machine the parallel
// algorithm first ranks the selected elements with vector prefix-sum
// and reduction-sum operations (without moving any data), then
// redistributes them with many-to-many personalized communication.
//
// Because no CM-5 is at hand, the library ships its own coarse-grained
// machine: P logical processors exchanging real messages under one
// deterministic scheduler, with per-processor virtual clocks advanced
// by the paper's two-level cost model (start-up tau, per-word mu,
// per-op delta). Algorithms therefore run end-to-end and report
// reproducible CM-5-flavoured timings.
//
// A minimal PACK looks like this:
//
//	machine := packunpack.NewMachine(packunpack.Config{Procs: 4, Params: packunpack.CM5Params()})
//	layout := packunpack.MustLayout(packunpack.Dim{N: 1024, P: 4, W: 16})
//	err := machine.Run(func(p *packunpack.Proc) {
//	    a, m := buildLocalArrayAndMask(layout, p.Rank())
//	    res, err := packunpack.Pack(p, layout, a, m, packunpack.Options{Scheme: packunpack.CMS})
//	    // res.V is this processor's block of the packed vector.
//	    _ = res
//	    _ = err
//	})
//
// The subpackages under internal/ hold the substrates (machine
// emulator, block-cyclic distribution arithmetic, collectives, ranking,
// redistribution, experiment harness); this package re-exports the
// surface a downstream user needs.
package packunpack

import (
	"packunpack/internal/comm"
	"packunpack/internal/dist"
	"packunpack/internal/hpf"
	"packunpack/internal/mask"
	"packunpack/internal/pack"
	"packunpack/internal/ranking"
	"packunpack/internal/redist"
	"packunpack/internal/seq"
	"packunpack/internal/sim"
	"packunpack/internal/transport"
)

// ---- Machine (internal/sim) ----

// Params holds the two-level machine model constants (microseconds):
// Tau is the communication start-up cost, Mu the per-word transfer
// time, Delta the cost of a local elementary operation.
type Params = sim.Params

// Config describes a machine to build.
type Config = sim.Config

// Machine is an emulated coarse-grained parallel machine.
type Machine = sim.Machine

// Proc is one logical processor inside a (sim-backend) Machine.Run.
type Proc = sim.Proc

// Endpoint is the backend-independent per-processor transport handle
// every operation takes: *Proc (the emulator) satisfies it, and so do
// the real backend's processors. SPMD bodies written against Endpoint
// run unchanged on either backend.
type Endpoint = transport.Endpoint

// Backend selects a transport implementation: BackendSim is the
// virtual-clock emulator (deterministic, traceable, fault-injectable —
// the byte-exact oracle), BackendReal runs the P processor bodies
// genuinely in parallel on host cores with real wall-clock timing.
type Backend = transport.Backend

const (
	// BackendSim is the internal/sim emulator.
	BackendSim = transport.BackendSim
	// BackendReal is the shared-memory parallel backend.
	BackendReal = transport.BackendReal
)

// ParallelMachine is the backend-independent machine interface: Run an
// SPMD body, then read Stats and MaxClock. Both backends implement it.
type ParallelMachine = transport.Machine

// RealConfig describes a real shared-memory machine (BackendReal).
type RealConfig = transport.RealConfig

// ParseBackend maps the -backend flag values of packtrace to a
// Backend.
func ParseBackend(s string) (Backend, error) { return transport.ParseBackend(s) }

// NewBackendMachine builds a machine of the requested backend from one
// Config. The sim backend honours every field; the real backend maps
// Procs, Params and the event Sink (events then carry wall-clock
// microsecond timestamps) and rejects only fault injection, which
// needs the emulator's omniscient network.
func NewBackendMachine(b Backend, cfg Config) (ParallelMachine, error) {
	return transport.New(b, cfg)
}

// NewRealMachine builds a real shared-memory parallel machine.
func NewRealMachine(cfg RealConfig) (*transport.RealMachine, error) {
	return transport.NewReal(cfg)
}

// Stats summarises one processor's activity after a run.
type Stats = sim.Stats

// PhaseStats is a per-phase virtual-time breakdown.
type PhaseStats = sim.PhaseStats

// Sched was the machine's execution-mode selector (Config.Sched).
//
// Deprecated: every machine runs the cooperative scheduler, and
// Config.Sched is ignored.
type Sched = sim.Sched

// SchedCooperative names the cooperative scheduler.
//
// Deprecated: it is the only mode; setting it changes nothing.
const SchedCooperative = sim.SchedCooperative

// FaultConfig is a seeded, deterministic fault-injection plan for the
// emulated network (Config.Faults): message drop, duplication,
// reordering, extra delay and transient processor stalls. With a plan
// installed, Pack/Unpack ride a reliable transport (sequence numbers,
// ack/timeout/retry, receiver-side dedup) and still return exact
// results; the injection activity is reported in FaultReport.
type FaultConfig = sim.FaultConfig

// FaultCounters tallies fault-injection and recovery activity.
type FaultCounters = sim.FaultCounters

// FaultReport summarises a faulted run: totals, per-rank and per-phase
// counters. Available from Machine.FaultReport after Run.
type FaultReport = sim.FaultReport

// FaultBudgetError reports a send that exhausted its retry budget.
type FaultBudgetError = sim.FaultBudgetError

// ParseFaults parses a fault plan from "seed[:name=value,...]"
// notation, e.g. "42:drop=0.01,dup=0.005" (the cmd/packbench -faults
// syntax).
func ParseFaults(s string) (*FaultConfig, error) { return sim.ParseFaults(s) }

// IsFaultBudget reports whether err is (or wraps) a FaultBudgetError.
func IsFaultBudget(err error) bool { return sim.IsFaultBudget(err) }

// CM5Params returns machine constants flavoured after the CM-5 the
// paper measured on.
func CM5Params() Params { return sim.CM5Params() }

// NewMachine builds a machine; it panics on invalid configurations
// (use sim.New via NewMachineErr for error handling).
func NewMachine(cfg Config) *Machine { return sim.MustNew(cfg) }

// NewMachineErr builds a machine, reporting configuration errors.
func NewMachineErr(cfg Config) (*Machine, error) { return sim.New(cfg) }

// ---- Distribution (internal/dist) ----

// Dim describes the block-cyclic distribution of one array dimension:
// global extent N over P processors with block size W.
type Dim = dist.Dim

// Layout describes the distribution of a rank-d array over a logical
// processor grid; Dims[0] is dimension 0 (fastest-varying).
type Layout = dist.Layout

// BlockVector describes the block distribution of the packed result
// vector (or UNPACK's input vector).
type BlockVector = dist.BlockVector

// VectorDist describes a general block-cyclic vector distribution —
// the distribution of Pack's result vector and Unpack's input vector
// (Options.VectorW; 0 is the paper's block default).
type VectorDist = dist.VectorDist

// NewVectorDist builds a vector distribution of size elements over p
// processors with block size w (0 = block).
func NewVectorDist(size, p, w int) (VectorDist, error) { return dist.NewVectorDist(size, p, w) }

// NewLayout validates and builds a layout (dimension 0 first).
func NewLayout(dims ...Dim) (*Layout, error) { return dist.NewLayout(dims...) }

// MustLayout is NewLayout for layouts known to be valid.
func MustLayout(dims ...Dim) *Layout { return dist.MustLayout(dims...) }

// BlockLayout returns the all-block layout with the same shape and
// grid as l — the target of the preliminary redistribution schemes.
func BlockLayout(l *Layout) *Layout { return redist.BlockLayout(l) }

// ParseDist parses an HPF DISTRIBUTE directive against a global array
// shape (dimension 0 first), e.g.
//
//	ParseDist("CYCLIC(2), BLOCK ONTO 4x4", 64, 64)
//
// Accepted per-dimension forms: BLOCK, CYCLIC, CYCLIC(k), and * (kept
// on one processor). The paper's divisibility assumptions must hold.
func ParseDist(spec string, shape ...int) (*Layout, error) { return hpf.ParseDist(spec, shape...) }

// ParseDistGeneral is ParseDist without divisibility assumptions; the
// result works with PackGeneral/UnpackGeneral.
func ParseDistGeneral(spec string, shape ...int) (*GeneralLayout, error) {
	return hpf.ParseDistGeneral(spec, shape...)
}

// FormatDist renders a layout's dimensions back in directive notation.
func FormatDist(l *Layout) string { return hpf.Format(l.Dims) }

// Scatter splits a flat row-major global array into per-processor
// local arrays (test and example setup helper).
func Scatter[T any](l *Layout, global []T) [][]T { return dist.Scatter(l, global) }

// Gather reassembles the flat global array from per-processor locals.
func Gather[T any](l *Layout, locals [][]T) []T { return dist.Gather(l, locals) }

// GeneralLayout describes a block-cyclic distribution with arbitrary
// extents — the paper's divisibility assumptions (P_i | N_i,
// W_i | L_i) lifted. Local arrays are ragged (LocalShapeAt /
// LocalSizeAt); PACK/UNPACK handle them by padding each dimension to
// the next tile multiple and masking the padding out, which preserves
// every rank.
type GeneralLayout = dist.GeneralLayout

// NewGeneralLayout builds a general layout (dimension 0 first) under
// relaxed validation.
func NewGeneralLayout(dims ...Dim) (*GeneralLayout, error) { return dist.NewGeneralLayout(dims...) }

// MustGeneralLayout is NewGeneralLayout for layouts known to be valid.
func MustGeneralLayout(dims ...Dim) *GeneralLayout { return dist.MustGeneralLayout(dims...) }

// ScatterGeneral splits a flat global array into ragged per-processor
// locals.
func ScatterGeneral[T any](l *GeneralLayout, global []T) [][]T {
	return dist.ScatterGeneral(l, global)
}

// GatherGeneral reassembles the flat global array from ragged locals.
func GatherGeneral[T any](l *GeneralLayout, locals [][]T) []T {
	return dist.GatherGeneral(l, locals)
}

// ---- Schemes and options (internal/pack, internal/comm) ----

// Scheme selects the storage/message scheme of Section 6 of the paper.
type Scheme = pack.Scheme

const (
	// SSS is the simple storage scheme: per-element records, messages
	// charged as (datum, rank) pairs.
	SSS = pack.SchemeSSS
	// CSS is the compact storage scheme: no per-element records,
	// counter/base-rank comparison plus a second slice scan; messages
	// still charged as pairs.
	CSS = pack.SchemeCSS
	// CMS is the compact message scheme: CSS storage plus messages
	// charged as run-length (base rank, count, data...) segments. PACK
	// only. Under every scheme the host sends segments; the scheme
	// decides what the cost model charges for them.
	CMS = pack.SchemeCMS
)

// PRSAlgorithm selects the prefix-reduction-sum variant.
type PRSAlgorithm = comm.PRSAlgorithm

const (
	// PRSAuto applies the paper's rule: direct for small groups or
	// short vectors, split otherwise.
	PRSAuto = comm.PRSAuto
	// PRSDirect is the direct (recursive-doubling) algorithm.
	PRSDirect = comm.PRSDirect
	// PRSSplit is the split algorithm with a P-independent bandwidth
	// term.
	PRSSplit = comm.PRSSplit
)

// A2AOptions tunes the many-to-many personalized communication.
type A2AOptions = comm.A2AOptions

// Options configure Pack/Unpack; the zero value is SSS with the
// paper's defaults.
type Options = pack.Options

// RankingResult exposes the outcome of the ranking stage.
type RankingResult = ranking.Result

// ---- Plan compilation (internal/pack) ----

// Plan is a compiled PACK/UNPACK schedule for one (layout, mask,
// options) configuration on one processor: ranking runs once at
// compile time, and the plan keeps its slice arrays PS_f and PS_c
// plus the local mask as a bitset (16 bytes per slice and one bit per
// element). Every execution skips the ranking stage, walks the bitset,
// and sends exactly the messages of a cold compact-message PACK or
// compact-storage UNPACK.
type Plan = pack.Plan

// PlanCache stores compiled plans keyed by a fingerprint of the
// (layout, mask, options) configuration. Install one in Options.Plans
// and the existing Pack/PackVector/Unpack (and the General variants)
// entry points compile on first sight and reuse on repeats.
type PlanCache = pack.PlanCache

// PlanCacheStats is a snapshot of a cache's hit/miss counters.
type PlanCacheStats = pack.PlanCacheStats

// NewPlanCache returns an empty plan cache, shareable across machines.
func NewPlanCache() *PlanCache { return pack.NewPlanCache() }

// CompilePlan runs the ranking collective once and compiles a plan
// for the calling processor (the explicit two-step API); every
// processor of the machine must call it with the same layout and
// options.
func CompilePlan(p Endpoint, l *Layout, m []bool, opt Options) (*Plan, error) {
	return pack.CompilePlan(p, l, m, opt)
}

// PlanPack executes a compiled plan as PACK with no per-call ranking.
func PlanPack[T any](p Endpoint, pl *Plan, a []T) (*PackResult[T], error) {
	return pack.PlanPack(p, pl, a)
}

// PlanUnpack executes a compiled plan as UNPACK against the plan's
// vector distribution.
func PlanUnpack[T any](p Endpoint, pl *Plan, v []T, field []T) (*UnpackResult[T], error) {
	return pack.PlanUnpack(p, pl, v, field)
}

// PackResult is the outcome of Pack on one processor.
type PackResult[T any] = pack.Result[T]

// UnpackResult is the outcome of Unpack on one processor.
type UnpackResult[T any] = pack.UnpackResult[T]

// ---- Operations ----

// Pack gathers the selected elements of the distributed array into a
// block-distributed result vector. It must be called by every
// processor of the machine with the same layout and options; a and m
// are the caller's local array and mask portions.
func Pack[T any](p Endpoint, l *Layout, a []T, m []bool, opt Options) (*PackResult[T], error) {
	return pack.Pack(p, l, a, m, opt)
}

// PackVector is PACK with the Fortran 90 optional VECTOR argument: the
// result vector takes the pad vector's global length nVec (>= the
// selected count) and keeps the pad values beyond the packed elements.
// pad is the caller's local portion of the pad vector under the result
// distribution.
func PackVector[T any](p Endpoint, l *Layout, a []T, m []bool, pad []T, nVec int, opt Options) (*PackResult[T], error) {
	return pack.PackVector(p, l, a, m, pad, nVec, opt)
}

// Unpack scatters the block-distributed input vector (local portion v,
// global length nPrime >= number of selected elements) into a new
// array under the mask; unselected positions take the field array
// value.
func Unpack[T any](p Endpoint, l *Layout, v []T, nPrime int, m []bool, field []T, opt Options) (*UnpackResult[T], error) {
	return pack.Unpack(p, l, v, nPrime, m, field, opt)
}

// PackGeneral is Pack for arrays with arbitrary (non-divisible)
// extents; a and m are the caller's ragged local portions.
func PackGeneral[T any](p Endpoint, l *GeneralLayout, a []T, m []bool, opt Options) (*PackResult[T], error) {
	return pack.PackGeneral(p, l, a, m, opt)
}

// UnpackGeneral is Unpack for arrays with arbitrary extents.
func UnpackGeneral[T any](p Endpoint, l *GeneralLayout, v []T, nPrime int, m []bool, field []T, opt Options) (*UnpackResult[T], error) {
	return pack.UnpackGeneral(p, l, v, nPrime, m, field, opt)
}

// Rank runs only the ranking stage (Section 5): it computes the global
// rank information of the selected elements without moving any data.
func Rank(p Endpoint, l *Layout, m []bool, keepRecords bool) (*RankingResult, error) {
	return ranking.Rank(p, l, m, ranking.Options{KeepRecords: keepRecords})
}

// Count computes the number of selected elements — the Fortran 90
// COUNT intrinsic (one local scan plus a single-word reduction; far
// cheaper than a full ranking).
func Count(p Endpoint, l *Layout, m []bool) (int, error) { return pack.Count(p, l, m) }

// Merge computes the Fortran 90 MERGE intrinsic (elementwise masked
// selection between two aligned arrays); it is purely local.
func Merge[T any](p Endpoint, l *Layout, tsource, fsource []T, m []bool) ([]T, error) {
	return pack.Merge(p, l, tsource, fsource, m)
}

// CountGeneral is Count for ragged layouts.
func CountGeneral(p Endpoint, l *GeneralLayout, m []bool) (int, error) {
	return pack.CountGeneral(p, l, m)
}

// PackRedistSelected is the paper's Red.1 pipeline for cyclically
// distributed inputs: redistribute only the selected elements to the
// block layout, then PACK with the compact message scheme.
func PackRedistSelected[T any](p Endpoint, l *Layout, a []T, m []bool, opt Options) (*PackResult[T], error) {
	return redist.PackRedistSelected(p, l, a, m, opt)
}

// PackRedistWhole is the paper's Red.2 pipeline: redistribute the
// whole array and mask to the block layout (two-phase communication
// detection), then PACK with the compact message scheme.
func PackRedistWhole[T any](p Endpoint, l *Layout, a []T, m []bool, opt Options) (*PackResult[T], error) {
	return redist.PackRedistWhole(p, l, a, m, opt)
}

// Redistribute moves a distributed array between two block-cyclic
// layouts with the same shape and grid.
func Redistribute[T any](p Endpoint, src, dst *Layout, a []T) ([]T, error) {
	return redist.Redistribute(p, src, dst, a)
}

// ---- Masks (internal/mask) ----

// MaskGen decides mask values from global indices; implementations are
// pure functions so every processor can fill its local portion without
// communication.
type MaskGen = mask.Gen

// RandomMask builds a seeded pseudo-random mask of the given density
// for a global shape (dimension 0 first).
func RandomMask(density float64, seed uint64, shape ...int) MaskGen {
	return mask.NewRandom(density, seed, shape...)
}

// FirstHalfMask is the paper's deterministic 1-D mask: true iff the
// global index is below N/2.
func FirstHalfMask(n int) MaskGen { return mask.FirstHalf{N: n} }

// UpperTriangleMask is the paper's deterministic 2-D mask: true iff
// the dimension-1 index exceeds the dimension-0 index.
func UpperTriangleMask() MaskGen { return mask.UpperTriangle{} }

// FillLocalMask evaluates a mask generator over a processor's local
// portion of the layout.
func FillLocalMask(l *Layout, rank int, g MaskGen) []bool { return mask.FillLocal(l, rank, g) }

// FillGlobalMask evaluates a mask generator over the whole array.
func FillGlobalMask(l *Layout, g MaskGen) []bool { return mask.FillGlobal(l, g) }

// ---- Sequential reference (internal/seq) ----

// SeqPack is the sequential reference PACK (oracle and 1-processor
// baseline).
func SeqPack[T any](a []T, m []bool) []T { return seq.Pack(a, m) }

// SeqPackVector is the sequential reference PACK with the VECTOR
// argument.
func SeqPackVector[T any](a []T, m []bool, vector []T) []T { return seq.PackVector(a, m, vector) }

// SeqUnpack is the sequential reference UNPACK.
func SeqUnpack[T any](v []T, m []bool, f []T) []T { return seq.Unpack(v, m, f) }

// SeqCount returns the number of selected elements.
func SeqCount(m []bool) int { return seq.Count(m) }
