//go:build !unix

package udpnet

import "net"

// effectiveRecvBuffer reports the receive buffer as not known where the
// socket option cannot be read back portably; sessions then keep the
// base packet.
func effectiveRecvBuffer(*net.UDPConn) int { return 0 }
