//go:build unix

package udpnet

import (
	"net"
	"syscall"
)

// effectiveRecvBuffer reads back the socket's receive buffer as the
// kernel accounts it (on Linux, twice what was granted), or 0 if it
// cannot be read.
func effectiveRecvBuffer(uc *net.UDPConn) int {
	rc, err := uc.SyscallConn()
	if err != nil {
		return 0
	}
	var n int
	var serr error
	if err := rc.Control(func(fd uintptr) {
		n, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); err != nil || serr != nil {
		return 0
	}
	return n
}
