package main

// The benchmark runs on one CPU. On the 2-vCPU tuning host the guest
// kernel often left two busy threads of one process on the same vCPU,
// and at other times spread them, so an op that kept two threads busy
// ran at either of two speeds about 2x apart from one run of the same
// code to the next. Capping GOMAXPROCS alone was not enough: the real
// backend still locked each rank to an OS thread of its own, so every
// hand-off between ranks was a switch between OS threads, possibly on
// different vCPUs, and a tiny serve job took 0.4–1.0 ms instead of the
// 0.09 ms it takes on one CPU. Bound to one CPU, every goroutine of the
// run, both ranks of a P=2 machine included, shares one thread, and
// where the kernel places threads no longer changes what is measured.

import (
	"math/bits"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// runOnOneCPU re-executes the process bound to the last CPU it may run
// on, unless it already runs on one CPU. After that, runtime.NumCPU and
// GOMAXPROCS are 1, and the real backend, which locks each rank to an
// OS thread only when there are at least as many CPUs as ranks, runs
// both ranks of a P=2 machine as plain goroutines on one thread. It
// returns without re-executing when the binding fails; the caller caps
// GOMAXPROCS at 1 all the same.
func runOnOneCPU() {
	if runtime.NumCPU() == 1 {
		return
	}
	// Affinity is per thread and survives exec, so the thread that sets
	// it must be the one that calls exec.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var set [16]uint64 // room for 1024 CPUs
	size, ptr := unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, ptr); e != 0 {
		return
	}
	cpu := -1
	for i := len(set) - 1; i >= 0 && cpu < 0; i-- {
		if set[i] != 0 {
			cpu = 64*i + 63 - bits.LeadingZeros64(set[i])
		}
	}
	if cpu < 0 {
		return
	}
	set = [16]uint64{}
	set[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, size, ptr); e != 0 {
		return
	}
	if exe, err := os.Executable(); err == nil {
		_ = syscall.Exec(exe, os.Args, os.Environ())
	}
}
