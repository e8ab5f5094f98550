//go:build !unix

package cluster

import "net"

// peerProbe cannot peek without blocking here; a stream the peer closed
// fails its next exchange instead.
func peerProbe(net.Conn) func() bool { return func() bool { return true } }
