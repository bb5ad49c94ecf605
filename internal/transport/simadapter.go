package transport

import (
	"time"

	"packunpack/internal/sim"
)

// SimMachine adapts *sim.Machine to the Machine interface. The emulator
// keeps its full concrete API (tracing, spans, fault reports); this
// wrapper only narrows Run to the Endpoint-typed body and measures the
// host wall time of each run so sim and real report Elapsed uniformly.
type SimMachine struct {
	M       *sim.Machine
	elapsed time.Duration
}

// WrapSim adapts an existing emulator machine.
func WrapSim(m *sim.Machine) *SimMachine { return &SimMachine{M: m} }

// Both backends present the point-to-point surface; only the emulator
// adds fault injection.
var (
	_ FaultEndpoint = (*sim.Proc)(nil)
	_ Machine       = (*SimMachine)(nil)
	_ Endpoint      = (*realProc)(nil)
	_ Machine       = (*RealMachine)(nil)
)

func (s *SimMachine) Procs() int         { return s.M.Procs() }
func (s *SimMachine) Params() sim.Params { return s.M.Params() }

func (s *SimMachine) Run(body func(Endpoint)) error {
	start := time.Now()
	err := s.M.Run(func(p *sim.Proc) { body(p) })
	s.elapsed = time.Since(start)
	return err
}

func (s *SimMachine) Stats() []sim.Stats     { return s.M.Stats() }
func (s *SimMachine) MaxClock() float64      { return s.M.MaxClock() }
func (s *SimMachine) Elapsed() time.Duration { return s.elapsed }
func (s *SimMachine) Backend() Backend       { return BackendSim }
