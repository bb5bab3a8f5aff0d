//go:build !linux

package udpnet

import "net"

// Segment offload is Linux's; elsewhere every run goes datagram by
// datagram and no receive coalesces.
const (
	segmentOOB = 0
	groOOB     = 0
)

func segmentOffload(*net.UDPConn) (gso, gro bool) { return false, false }

func segmentCmsg(oob []byte, _ int) []byte { return oob }

func groSegment([]byte) int { return 0 }
