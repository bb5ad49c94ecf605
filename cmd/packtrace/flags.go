package main

import (
	"flag"
	"fmt"

	"packunpack/internal/transport"
)

// simOnlyFlags maps every packtrace flag that is meaningful only under
// the virtual-clock emulator to the reason it cannot apply to the real
// backend. Setting one together with -backend real is a hard error —
// silently ignoring an explicit request would report wall-clock numbers
// the user believes are something else.
var simOnlyFlags = map[string]string{
	"critpath": "the critical path is defined over the virtual cost model, not wall time",
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
