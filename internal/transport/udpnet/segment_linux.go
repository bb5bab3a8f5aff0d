//go:build linux

package udpnet

import (
	"encoding/binary"
	"net"
	"syscall"
	"unsafe"
)

// The UDP socket options behind segment I/O (linux/udp.h), which the
// syscall package predates. The level of both is IPPROTO_UDP (SOL_UDP).
const (
	// udpSegment is UDP_SEGMENT (Linux 4.18): a sendmsg control message
	// carrying gso_size asks the kernel to cut the payload into datagrams
	// of that size.
	udpSegment = 103
	// udpGRO is UDP_GRO (Linux 5.0): a socket that sets it may receive
	// several datagrams of one source in one recvmsg, with their gso_size
	// in a control message.
	udpGRO = 104
)

// cmsgLenSize is the width of a control message header's length field
// (size_t); the header is that, a level and a type, padded to it.
const cmsgLenSize = int(unsafe.Sizeof(syscall.Cmsghdr{}.Len))

// segmentOOB is room for the UDP_SEGMENT control message: a header and a
// uint16, padded.
const segmentOOB = 32

// groOOB is room for what a receive reports: the UDP_GRO control message,
// a header and an int, padded, with slack.
const groOOB = 64

// segmentOffload reports what the socket can do with runs: whether the
// kernel knows UDP_SEGMENT, and whether it took UDP_GRO, which this call
// sets.
func segmentOffload(uc *net.UDPConn) (gso, gro bool) {
	rc, err := uc.SyscallConn()
	if err != nil {
		return false, false
	}
	rc.Control(func(fd uintptr) {
		_, err := syscall.GetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpSegment)
		gso = err == nil
		gro = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1) == nil
	})
	return gso, gro
}

// putCmsgLen writes a control message header's length field.
func putCmsgLen(b []byte, n int) {
	if cmsgLenSize == 8 {
		binary.NativeEndian.PutUint64(b, uint64(n))
	} else {
		binary.NativeEndian.PutUint32(b, uint32(n))
	}
}

// cmsgLen reads a control message header's length field.
func cmsgLen(b []byte) uint64 {
	if cmsgLenSize == 8 {
		return binary.NativeEndian.Uint64(b)
	}
	return uint64(binary.NativeEndian.Uint32(b))
}

// segmentCmsg writes into oob, which holds segmentOOB bytes, the control
// message asking for datagrams of seg bytes, and returns it.
func segmentCmsg(oob []byte, seg int) []byte {
	hdr := syscall.CmsgLen(0)
	oob = oob[:syscall.CmsgSpace(2)]
	clear(oob)
	putCmsgLen(oob, syscall.CmsgLen(2))
	binary.NativeEndian.PutUint32(oob[cmsgLenSize:], syscall.IPPROTO_UDP)
	binary.NativeEndian.PutUint32(oob[cmsgLenSize+4:], udpSegment)
	binary.NativeEndian.PutUint16(oob[hdr:], uint16(seg))
	return oob
}

// groSegment returns the gso_size a receive's control messages report, or
// 0 when they report none: the datagram arrived alone. The lengths are
// the kernel's, and are checked as input: a header that claims more than
// oob holds ends the walk.
func groSegment(oob []byte) int {
	hdr := syscall.CmsgLen(0)
	for len(oob) >= hdr {
		n := cmsgLen(oob)
		if n < uint64(hdr) || n > uint64(len(oob)) {
			return 0
		}
		level := binary.NativeEndian.Uint32(oob[cmsgLenSize:])
		typ := binary.NativeEndian.Uint32(oob[cmsgLenSize+4:])
		if level == syscall.IPPROTO_UDP && typ == udpGRO && n >= uint64(hdr+4) {
			seg := int32(binary.NativeEndian.Uint32(oob[hdr:]))
			return max(int(seg), 0)
		}
		// The next header starts at the length rounded up to the
		// header's alignment.
		next := (n + uint64(cmsgLenSize) - 1) &^ uint64(cmsgLenSize-1)
		if next >= uint64(len(oob)) {
			return 0
		}
		oob = oob[next:]
	}
	return 0
}
