package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// Go's time.Sleep cannot pace a sub-millisecond schedule: an idle runtime
// parks in epoll_wait, whose timeout is in whole milliseconds, so a 100 µs
// sleep routinely returns 1 ms late. Sleeping in nanosleep instead would
// hold the generator's P in syscall state until sysmon retakes it, stalling
// the program's own goroutines. A pacer therefore waits on a timerfd through
// the runtime's network poller: the goroutine parks, its P is free at once,
// and the kernel's high-resolution timer wakes the poller when the message
// is due. Nothing spins.
type pacer struct {
	f *os.File
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

func newPacer() *pacer {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return &pacer{} // no timerfd: fall back to the runtime's timers
	}
	return &pacer{f: os.NewFile(fd, "timerfd")}
}

// sleep parks the calling goroutine for ns nanoseconds.
func (p *pacer) sleep(ns int64) {
	if p.f == nil {
		time.Sleep(time.Duration(ns))
		return
	}
	// struct itimerspec{ it_interval, it_value }: one shot after ns.
	spec := [4]int64{0, 0, ns / 1e9, ns % 1e9}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.f.Fd(), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(time.Duration(ns))
		return
	}
	var expirations [8]byte
	_, _ = p.f.Read(expirations[:]) // an error only makes the caller re-check the clock
}

func (p *pacer) close() {
	if p.f != nil {
		p.f.Close()
	}
}
