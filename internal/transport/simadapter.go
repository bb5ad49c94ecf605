package transport

import "packunpack/internal/sim"

// SimMachine adapts *sim.Machine to the Machine interface. The emulator
// keeps its full concrete API (event sink, fault reports); this
// wrapper only narrows Run to the Endpoint-typed body.
type SimMachine struct {
	M *sim.Machine
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
	return s.M.Run(func(p *sim.Proc) { body(p) })
}

func (s *SimMachine) Stats() []sim.Stats { return s.M.Stats() }
func (s *SimMachine) MaxClock() float64  { return s.M.MaxClock() }
func (s *SimMachine) Backend() Backend   { return BackendSim }
