package serve

import (
	"fmt"

	"packunpack/internal/dist"
	"packunpack/internal/pack"
	"packunpack/internal/transport"
)

// runJob executes one job as a full SPMD machine run into freshly
// allocated response buffers. Inside the body each rank copies its own
// part of the global array and mask (and of UNPACK's input vector) in
// runs, and an UNPACK rank writes its own runs of the response array;
// PACK's result vector is assembled after the run, once ranking has
// fixed its size. These copies are host work: they charge nothing, so
// the virtual makespan is the algorithm's alone. The machine is owned
// by the calling worker; plans is the tenant's shared cache (nil
// disables planning).
func runJob(m transport.Machine, job *Job, plans *pack.PlanCache) (*Response, error) {
	l := job.Layout
	procs := l.Procs()
	opt := pack.Options{Scheme: job.Scheme, VectorW: job.VectorW, Plans: plans}
	resp := &Response{}
	scatter := func(rank int) ([]int, []bool) {
		a, mask := make([]int, l.LocalSize()), make([]bool, l.LocalSize())
		dist.ScatterRank(l, rank, job.Global, a)
		dist.ScatterRank(l, rank, job.Mask, mask)
		return a, mask
	}

	switch job.Kind {
	case JobPack:
		results := make([]*pack.Result[int], procs)
		err := m.Run(func(ep transport.Endpoint) {
			a, mask := scatter(ep.Rank())
			r, err := pack.Pack(ep, l, a, mask, opt)
			if err != nil {
				panic(err)
			}
			results[ep.Rank()] = r
		})
		if err != nil {
			return nil, fmt.Errorf("serve: pack job: %w", err)
		}
		count := results[0].Ranking.Size
		resp.Vector, resp.Count = make([]int, count), count
		for rank, r := range results {
			dist.GatherVector(r.Vec, rank, r.V, resp.Vector)
		}

	case JobUnpack:
		// CMS is PACK-only (the paper defines no CMS UNPACK); fall back
		// to CSS exactly like the library's benchmarks do.
		if opt.Scheme == pack.SchemeCMS {
			opt.Scheme = pack.SchemeCSS
		}
		nPrime := len(job.Vector)
		vdist, err := dist.NewVectorDist(nPrime, procs, job.VectorW)
		if err != nil {
			return nil, fmt.Errorf("%w: input vector distribution: %v", ErrBadJob, err)
		}
		resp.Array = make([]int, l.GlobalSize())
		counts := make([]int, procs)
		err = m.Run(func(ep transport.Endpoint) {
			rank := ep.Rank()
			field, mask := scatter(rank)
			lv := make([]int, vdist.LocalLen(rank))
			dist.ScatterVector(vdist, rank, job.Vector, lv)
			r, err := pack.Unpack(ep, l, lv, nPrime, mask, field, opt)
			if err != nil {
				panic(err)
			}
			dist.GatherRank(l, rank, r.A, resp.Array)
			counts[rank] = r.Ranking.Size
		})
		if err != nil {
			return nil, fmt.Errorf("serve: unpack job: %w", err)
		}
		resp.Count = counts[0]
	}

	// Two-clock rule: the virtual makespan is meaningful (and
	// deterministic) on the sim backend only; the real backend's
	// MaxClock is wall time, which Response.Service already carries.
	if m.Backend() == transport.BackendSim {
		resp.VirtualUS = m.MaxClock()
	}
	return resp, nil
}
