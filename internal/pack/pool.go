package pack

// This file is the message-buffer pool. Two kinds of message carry one
// buffer of elements each, under every scheme: a PACK message (its
// segments' data, one buffer per peer) and an UNPACK reply (the served
// vector runs, one buffer per requesting peer). Each call used to
// allocate those buffers fresh, and the allocator zeroed memory that
// the call then overwrote in full. The pool keeps them across calls
// instead.
// Only peer-bound data is pooled: a rank's message to itself is still
// sent and charged at its full word count, but with no data payload,
// because the rank places its own data itself (PACK collects it
// straight into V, UNPACK reads it straight from its vector portion).
// The ownership rule:
//
//   - A buffer has one owner at a time. The sender takes it from the
//     pool, writes every element of it and sends it; from then on it
//     belongs to the receiver. Only the receiver returns it, once it
//     has copied the data out. A sender never recycles what it sent:
//     it cannot know when its peer is done reading.
//   - Every element of a pooled buffer is written before it is sent,
//     so no stale data crosses calls, machines or packserve tenants.
//   - Result arrays and caller-owned arrays are never pooled: they
//     outlive the call.
//   - A buffer whose element type holds pointers is cleared before it
//     goes back, so the pool keeps no caller data reachable.
//
// Buffers are kept in power-of-two capacity classes, one sync.Pool per
// class and element type, so a request for n elements is served by
// any buffer of its class. The pooled buffers are live heap between
// calls, and the garbage collector sets its heap target at a multiple
// of the live heap, so pooling about one call's messages raises a
// process's peak resident set by a few times their size.

import (
	"math/bits"
	"reflect"
	"sync"
)

// bufPool holds the pooled buffers of one element type.
type bufPool struct {
	classes  [bits.UintSize]sync.Pool // class c holds buffers of capacity 1<<c
	pointers bool                     // the element type holds pointers
}

// pools maps an element type to its bufPool.
var pools sync.Map

func poolOf[T any]() *bufPool {
	t := reflect.TypeFor[T]()
	if bp, ok := pools.Load(t); ok {
		return bp.(*bufPool)
	}
	bp, _ := pools.LoadOrStore(t, &bufPool{pointers: hasPointers(t)})
	return bp.(*bufPool)
}

// getBuf returns a buffer of n elements whose contents are unspecified:
// the caller must write all of them before sending it.
func getBuf[T any](n int) []T {
	if n == 0 {
		return nil
	}
	c := bits.Len(uint(n - 1))
	if b, ok := poolOf[T]().classes[c].Get().(*[]T); ok {
		return (*b)[:n]
	}
	return make([]T, n, 1<<c)
}

// putBuf returns a received buffer to the pool. Buffers that getBuf did
// not make (their capacity is not a power of two) are left to the
// garbage collector.
func putBuf[T any](b []T) {
	c := cap(b)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	bp := poolOf[T]()
	b = b[:c]
	if bp.pointers {
		clear(b)
	}
	bp.classes[bits.Len(uint(c-1))].Put(&b)
}

// hasPointers reports whether values of type t hold pointers.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}
