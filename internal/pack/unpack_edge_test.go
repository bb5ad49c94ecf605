package pack

import (
	"fmt"
	"testing"

	"packunpack/internal/comm"
	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/sim"
)

// prefixGen selects exactly the first K elements of a 1-D array, which
// concentrates every vector request on the first vector owner and
// leaves the remaining owners with zero-length reply buffers.
type prefixGen struct{ K int }

func (g prefixGen) At(global []int) bool { return global[0] < g.K }

func sumMsgs(m *sim.Machine) int64 {
	var total int64
	for _, s := range m.Stats() {
		total += s.MsgsSent
	}
	return total
}

// TestUnpackSkipEmptyZeroLengthReplies drives the two-phase UNPACK
// redistribution through AlltoallV's SkipEmpty mode on a pattern where
// both directions carry empty buffers: only the first 6 of 64 elements
// are selected, so two processors compose no requests at all, and with
// N' padded to 32 only the first vector owner holds requested data —
// every other owner's reply to every requester is zero-length. The
// result must still match the sequential oracle, and skipping must
// strictly reduce the number of (costed) messages.
func TestUnpackSkipEmptyZeroLengthReplies(t *testing.T) {
	l := dist.MustLayout(dist.Dim{N: 64, P: 4, W: 4})
	gen := prefixGen{K: 6}
	const slack = 26 // N' = 6 + 26 = 32, block-distributed 8 per owner
	for _, scheme := range []Scheme{SchemeSSS, SchemeCSS} {
		for _, naive := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/naive=%v", scheme, naive), func(t *testing.T) {
				base := Options{Scheme: scheme, A2A: comm.A2AOptions{Naive: naive}}
				skip := base
				skip.A2A.SkipEmpty = true
				full := runUnpackW(t, l, gen, slack, base)
				skipped := runUnpackW(t, l, gen, slack, skip)
				if f, s := sumMsgs(full), sumMsgs(skipped); s >= f {
					t.Errorf("SkipEmpty sent %d messages, always-send sent %d; empty requests/replies should be skipped", s, f)
				}
			})
		}
	}
}

// TestUnpackSkipEmptyNoSelection is the fully degenerate corner: an
// empty mask means every request buffer and every reply buffer in both
// all-to-all stages has zero length, so under SkipEmpty the
// redistribution stages exchange probes only. The unpacked array must
// equal the field array, and the message-count difference against
// always-send mode must be exactly the 2·P rounds per processor that
// the two all-to-all stages would otherwise transmit empty.
func TestUnpackSkipEmptyNoSelection(t *testing.T) {
	l := dist.MustLayout(dist.Dim{N: 48, P: 4, W: 3})
	for _, scheme := range []Scheme{SchemeSSS, SchemeCSS} {
		full := runUnpackW(t, l, mask.Empty{}, 8, Options{Scheme: scheme})
		skip := runUnpackW(t, l, mask.Empty{}, 8, Options{Scheme: scheme, A2A: comm.A2AOptions{SkipEmpty: true}})
		p := int64(l.Procs())
		if d := sumMsgs(full) - sumMsgs(skip); d != 2*p*p {
			t.Errorf("scheme %v: SkipEmpty removed %d messages, want exactly %d (all data rounds of both stages)", scheme, d, 2*p*p)
		}
	}
}
