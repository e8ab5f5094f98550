//go:build unix

package cluster

import (
	"net"
	"syscall"
)

// peerProbe returns a check that peeks at c, idle, without blocking: c
// is open when the read would wait. End of stream, a reset or unasked
// bytes all mean the connection must not carry another exchange. The
// check is built once per stream and allocates nothing per call; it is
// not safe for concurrent use.
func peerProbe(c net.Conn) func() bool {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return func() bool { return true }
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return func() bool { return false }
	}
	var open bool
	peek := func(fd uintptr) bool {
		var b [1]byte
		_, _, rerr := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		open = rerr == syscall.EAGAIN || rerr == syscall.EWOULDBLOCK
		return true
	}
	return func() bool {
		open = false
		err := rc.Read(peek)
		return err == nil && open
	}
}
