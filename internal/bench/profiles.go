// Package bench is the measurement harness that regenerates the paper's
// prototype experiments (Tables 1-4 and the §3 TCP observation) on the
// modeled network. It assembles the same installations the paper measured
// — SPARCstation 2 client, SPARCstation SLC storage agents with local SCSI
// disks, dedicated and departmental 10 Mb/s Ethernets, a Sun 4/390 NFS
// server with IPI drives — takes eight samples per cell as the paper did,
// and prints the same rows.
package bench

import (
	"time"

	"swift/internal/transport/memnet"
)

// Calibration constants. These describe the hardware once; no table's
// result is set directly.
const (
	// EthernetBps is raw 10 Mb/s Ethernet.
	EthernetBps = 10e6
	// EthernetOverhead is the per-datagram framing cost in bytes:
	// preamble 8 + MAC header/FCS 18 + inter-frame gap 12 + IP 20 +
	// UDP 8. With 1400-byte datagrams this yields the ≈1.12 MB/s
	// effective capacity the paper measured.
	EthernetOverhead = 66
	// EthernetLatency is the one-way propagation + interface delay.
	EthernetLatency = 100 * time.Microsecond

	// SparcRecvCPU is the SPARCstation 2 client's per-packet receive
	// processing cost (interrupt, protocol, copy to user). It caps the
	// client's receive rate at ≈1.2 MB/s, which is why the paper's
	// two-Ethernet reads improved only ≈25% while writes doubled.
	SparcRecvCPU = 1000 * time.Microsecond
	// SparcSendCPU is the client's per-packet send cost; transmission
	// used scatter-gather, so it is far cheaper than receive.
	SparcSendCPU = 250 * time.Microsecond

	// SLCRecvCPU / SLCSendCPU are the slower SPARCstation SLC storage
	// agents' per-packet costs.
	SLCRecvCPU = 400 * time.Microsecond
	SLCSendCPU = 400 * time.Microsecond

	// StreamRecvCPU is the per-packet cost of the first prototype's
	// TCP-based transport: stream reassembly forced "a significant
	// amount of data copying" and buffer management, which kept it
	// under 45% of the Ethernet's capacity.
	StreamRecvCPU = 2800 * time.Microsecond
	StreamSendCPU = 2800 * time.Microsecond

	// AsyncWriteRate is the SunOS buffer-cache absorption rate on the
	// agents (the prototype's agents wrote asynchronously).
	AsyncWriteRate = 4e6

	// WritePace is the prototype's "small wait loop between write
	// operations" that kept the client kernel from dropping packets.
	// It is what holds the write path at ≈78% of the medium's capacity,
	// as the paper observed.
	WritePace = 3000 * time.Microsecond

	// RequestBytes is the read/write burst the client asks of one agent
	// at a time (12 packets ≈ 16 KB). The prototype kept one
	// outstanding request per storage agent; this burst size reproduces
	// its read-path turnaround gaps.
	RequestBytes = 12 * 1364

	// AgentReadChunk is the bytes a storage agent reads from its disk per
	// call while serving a read: the prototype's 8 KB. Tables 1-4 were
	// calibrated on the disk/network overlap these reads give and on
	// their datagram train, a 1364-byte packet sequence restarted at each
	// 8 KB boundary.
	AgentReadChunk = 8192

	// NFSServerCPU is the Sun 4/390's per-RPC processing cost.
	NFSServerCPU = 1 * time.Millisecond

	// SunOSPortQueue models the small socket buffers that caused the
	// prototype's read-path losses ("packet loss rates caused by lack
	// of buffer space in the SunOS kernel").
	SunOSPortQueue = 64
	// SunOSIngressQueue bounds per-host interface queues.
	SunOSIngressQueue = 128
)

// EthernetSegment returns a 10 Mb/s shared-bus segment configuration.
func EthernetSegment(seed int64) memnet.SegmentConfig {
	return memnet.SegmentConfig{
		BandwidthBps:  EthernetBps,
		FrameOverhead: EthernetOverhead,
		Latency:       EthernetLatency,
		Seed:          seed,
	}
}

// SparcClientHost returns the SPARCstation 2 client host profile.
func SparcClientHost() memnet.HostConfig {
	return memnet.HostConfig{
		SendCPU:      SparcSendCPU,
		RecvCPU:      SparcRecvCPU,
		PortQueue:    SunOSPortQueue,
		IngressQueue: SunOSIngressQueue,
	}
}

// StreamClientHost returns the client profile for the TCP-prototype
// ablation: the same machine burdened with stream-transport copies.
func StreamClientHost() memnet.HostConfig {
	return memnet.HostConfig{
		SendCPU:      StreamSendCPU,
		RecvCPU:      StreamRecvCPU,
		PortQueue:    SunOSPortQueue,
		IngressQueue: SunOSIngressQueue,
	}
}

// SLCAgentHost returns the SPARCstation SLC storage-agent host profile.
func SLCAgentHost() memnet.HostConfig {
	return memnet.HostConfig{
		SendCPU:      SLCSendCPU,
		RecvCPU:      SLCRecvCPU,
		PortQueue:    SunOSPortQueue,
		IngressQueue: SunOSIngressQueue,
	}
}

// ServerHost returns the Sun 4/390 NFS server host profile (a faster
// machine than the SLCs).
func ServerHost() memnet.HostConfig {
	return memnet.HostConfig{
		SendCPU:      300 * time.Microsecond,
		RecvCPU:      300 * time.Microsecond,
		PortQueue:    SunOSPortQueue,
		IngressQueue: SunOSIngressQueue,
	}
}
