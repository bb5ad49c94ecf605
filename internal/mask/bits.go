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
func Bits(m []bool) []uint64 {
	sel := make([]uint64, (len(m)+63)/64)
	for i := range sel {
		sel[i] = word(m[i*64 : min(i*64+64, len(m))])
	}
	return sel
}

// word packs up to 64 mask elements into one word, element j at bit j.
// A full word reads its elements eight at a time, as one little-endian
// uint64 of bytes that are each 0 or 1 (the gc compiler stores a bool
// as one such byte), and one multiply gathers the eight low bits into
// the top byte: byte i lands at bit 56+i, and no partial product
// carries into that byte. Every call packs its whole mask, so this
// must stay cheap next to the scans it saves.
func word(c []bool) uint64 {
	var w uint64
	if len(c) == 64 {
		b := unsafe.Slice((*byte)(unsafe.Pointer(&c[0])), 64)
		for j := 0; j < 64; j += 8 {
			w |= binary.LittleEndian.Uint64(b[j:]) * 0x0102040810204080 >> 56 << j
		}
		return w
	}
	for j, b := range c {
		if b {
			w |= 1 << j
		}
	}
	return w
}
