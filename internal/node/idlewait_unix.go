//go:build unix

package node

import (
	"net"
	"syscall"
)

// bareWait returns the served loop's wait for a request's first byte on c,
// which holds no buffer, or nil where c has no descriptor to wait on (the
// loop then waits in a read through its reader, as net/http does).
//
// The runtime calls peek when the wait begins and again each time the
// poller wakes the goroutine. The first call peeks one byte with MSG_PEEK:
// a byte already queued ends the wait there, and an empty socket's EAGAIN
// parks the goroutine, as the read the loop would have made does. A later
// call ends the wait without a system call: the wake-up says there is
// something to read, and a spurious one only means the loop's next read
// waits holding a buffer. The wait returns the error of a read deadline
// that passed or of a connection closed under it.
func bareWait(c net.Conn) func() error {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return nil
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	var (
		woken bool
		one   [1]byte
	)
	peek := func(fd uintptr) bool {
		if woken {
			return true
		}
		woken = true
		_, _, err := syscall.Recvfrom(int(fd), one[:], syscall.MSG_PEEK)
		return err != syscall.EAGAIN
	}
	return func() error {
		woken = false
		return raw.Read(peek)
	}
}
