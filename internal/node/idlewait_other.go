//go:build !unix

package node

import "net"

// bareWait is nil where the served loop has no wait that holds no buffer:
// it waits in a read through its reader, as net/http does.
func bareWait(net.Conn) func() error { return nil }
