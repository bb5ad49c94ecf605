package dist

// Scatter splits a flat row-major global array into the per-processor
// local arrays induced by the layout: result[r] is processor r's local
// buffer in local row-major order. It is a test/setup helper — the
// emulated processors exchange data through the machine, not through
// this function.
func Scatter[T any](l *Layout, global []T) [][]T {
	if len(global) != l.GlobalSize() {
		panic("dist: Scatter global buffer of wrong size")
	}
	out := make([][]T, l.Procs())
	for r := range out {
		out[r] = make([]T, l.LocalSize())
		scatterRuns(l.Runs(r), global, out[r])
	}
	return out
}

// Gather is the inverse of Scatter: it reassembles the flat global
// array from per-processor local buffers.
func Gather[T any](l *Layout, locals [][]T) []T {
	if len(locals) != l.Procs() {
		panic("dist: Gather needs one local buffer per processor")
	}
	global := make([]T, l.GlobalSize())
	for r, local := range locals {
		GatherRank(l, r, local, global)
	}
	return global
}
