package main

import (
	"flag"
	"fmt"

	"packunpack/internal/transport"
)

// simOnlyFlags maps every packbench flag that only affects the
// virtual-time sweep to the reason it cannot apply to -backend real
// (which runs the fixed realworld measured-speedup family). Setting one
// together with the real backend is a hard error rather than a silent
// no-op: a user who asked for fault injection or a trace directory must
// not get a clean-looking run that quietly did neither.
var simOnlyFlags = map[string]string{
	"faults":     "fault injection is a modelling device of the emulator's omniscient network",
	"trace-dir":  "per-point trace dumps cover the virtual-time experiment grid; use packtrace -backend real for a wall-clock trace",
	"plan-gate":  "the plan-cache amortization measurement runs on the virtual-time sweep",
	"flight-dir": "the sweep flight recorder covers the virtual-time experiment grid; use packtrace -backend real -flight-dir for one real run",
	"exp":        "the real backend runs the fixed realworld experiment family",
	"service":    "the serving-layer soak's latency model runs in virtual time on the emulator; use packserve -backend real for a wall-clock serving run",
}

// setFlagNames returns the names of the flags explicitly set on the
// command line, in flag.Visit (lexical) order.
func setFlagNames(fs *flag.FlagSet) []string {
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	return set
}

// checkBackendFlags rejects explicitly set sim-only flags under the
// real backend. set is the list of flag names the user passed.
func checkBackendFlags(backend transport.Backend, set []string) error {
	if backend != transport.BackendReal {
		return nil
	}
	for _, name := range set {
		if why, ok := simOnlyFlags[name]; ok {
			return fmt.Errorf("-%s is sim-only: %s (drop the flag or use -backend sim)", name, why)
		}
	}
	return nil
}
