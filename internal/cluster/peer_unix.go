//go:build unix

package cluster

import (
	"net"
	"syscall"
)

// peerOpen peeks at an idle connection without blocking: it is open when
// the read would wait. End of stream, a reset or unasked bytes all mean
// the connection must not carry another exchange.
func peerOpen(c net.Conn) bool {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return true
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	open := false
	err = rc.Read(func(fd uintptr) bool {
		var b [1]byte
		_, _, rerr := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		open = rerr == syscall.EAGAIN || rerr == syscall.EWOULDBLOCK
		return true
	})
	return err == nil && open
}
