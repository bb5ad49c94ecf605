package mask

import (
	"encoding/binary"
	"unsafe"
)

// Bits packs a local mask into a bitset, element i at bit i%64 of word
// i/64; the bits past len(m) in the last word are zero. PACK, UNPACK
// and plan compilation pack their mask once per call, and everything
// downstream (the ranking scan, the compose and placement walks, the
// plan fingerprint and its check) reads the words.
//
// A full word reads its 64 elements through a *[64]byte, eight at a
// time, as one little-endian uint64 of bytes that are each 0 or 1 (the
// gc compiler stores a bool as one such byte), and one multiply gathers
// the eight low bits into the top byte: byte i lands at bit 56+i, and
// no partial product carries into that byte. The eight loads sit at
// constant offsets of the array, so a word costs no subslice, bounds
// check or call; [64]byte has alignment 1, so any start is a valid
// pointer for it. Every call packs its whole mask, so this must stay
// cheap next to the scans it saves.
func Bits(m []bool) []uint64 {
	sel := make([]uint64, (len(m)+63)/64)
	full := len(m) / 64
	for i := range full {
		b := (*[64]byte)(unsafe.Pointer(&m[i*64]))
		sel[i] = gather8(b[0:]) | gather8(b[8:])<<8 | gather8(b[16:])<<16 | gather8(b[24:])<<24 |
			gather8(b[32:])<<32 | gather8(b[40:])<<40 | gather8(b[48:])<<48 | gather8(b[56:])<<56
	}
	if full < len(sel) {
		var w uint64
		for j, v := range m[full*64:] {
			if v {
				w |= 1 << j
			}
		}
		sel[full] = w
	}
	return sel
}

// gather8 packs the eight 0-or-1 bytes at the start of b into the low
// eight bits of a word, byte j at bit j.
func gather8(b []byte) uint64 {
	return binary.LittleEndian.Uint64(b) * 0x0102040810204080 >> 56
}
