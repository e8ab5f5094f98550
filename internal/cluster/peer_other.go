//go:build !unix

package cluster

import "net"

// peerOpen cannot peek without blocking here; a stream the peer closed
// fails its next exchange instead.
func peerOpen(net.Conn) bool { return true }
