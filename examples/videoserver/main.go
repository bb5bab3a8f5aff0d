// Videoserver: the paper's motivating workload — continuous multimedia.
//
// A client asks the storage mediator for a session able to sustain
// compressed video at 1.0 MB/s (the paper's §1 cites 1.2 MB/s for DVI
// video; our modeled SPARCstation 2 client tops out just below that, so
// the demo streams at 1.0 MB/s). No single 10 Mb/s Ethernet delivers
// ≈0.9 MB/s of application data and no single SCSI disk reads faster than
// ≈0.68 MB/s, so the mediator's transfer plan stripes the stream over
// storage agents on two Ethernet segments with a small striping unit.
// The playback loop reads against a 30-fps deadline clock and reports the
// delivered rate and late frames.
//
//	go run ./examples/videoserver
package main

import (
	"fmt"
	"log"
	"time"

	"swift/internal/bench"
	"swift/internal/core"
	"swift/internal/mediator"
	"swift/internal/obs"
)

const (
	videoRate = 1.0e6    // compressed video, bytes/second
	videoLen  = 12 << 20 // total stream size
	playerBuf = 512 << 10
)

func main() {
	// The mediator knows the installation's capacities: six SLC agents
	// at 400 KB/s each, three per 10 Mb/s Ethernet.
	infos := make([]mediator.AgentInfo, 6)
	for i := range infos {
		infos[i] = mediator.AgentInfo{Addr: fmt.Sprintf("slc%d:7070", i), Rate: 400e3, Net: i % 2}
	}
	med, err := mediator.New(mediator.Config{
		Agents:  infos,
		Nets:    []mediator.NetInfo{{Name: "ether0", Capacity: 0.9e6}, {Name: "ether1", Capacity: 0.9e6}},
		MaxUnit: 64 * 1024,
	})
	if err != nil {
		log.Fatalf("mediator: %v", err)
	}

	// A 3 MB/s request must be rejected: the installation cannot do it.
	if _, err := med.Admit(mediator.Requirements{Rate: 3e6}, obs.SpanContext{}); err == nil {
		log.Fatal("mediator admitted an impossible session")
	} else {
		fmt.Printf("mediator rejected 3.0 MB/s (correctly): %v\n", err)
	}

	// The video session is admitted with a plan spanning both segments.
	rec, err := med.Admit(mediator.Requirements{Rate: videoRate}, obs.SpanContext{})
	if err != nil {
		log.Fatalf("mediator rejected the video session: %v", err)
	}
	defer med.CloseSession(rec.ID)
	plan := rec.Plan
	fmt.Printf("mediator admitted 1.0 MB/s: %d agents, striping unit %d KB\n",
		len(plan.Agents), plan.Unit/1024)

	// Build the installation and a client that executes the plan.
	cluster, err := bench.NewSwiftCluster(bench.Options{
		Agents:   6,
		Segments: 2,
		Scale:    6,
		Client:   core.Config{Unit: plan.Unit},
	})
	if err != nil {
		log.Fatalf("cluster: %v", err)
	}
	defer cluster.Close()

	// Store the "video".
	f, err := cluster.Client.Open("movie.dvi", core.OpenFlags{Create: true, Truncate: true})
	if err != nil {
		log.Fatalf("create: %v", err)
	}
	defer f.Close()
	chunk := make([]byte, 1<<20)
	for i := range chunk {
		chunk[i] = byte(i)
	}
	for off := int64(0); off < videoLen; off += int64(len(chunk)) {
		if _, err := f.WriteAt(chunk, off); err != nil {
			log.Fatalf("store video: %v", err)
		}
	}
	fmt.Printf("stored a %d MB stream\n", videoLen>>20)

	// Playback: a buffered player pre-buffers the first half-megabyte
	// (as real players do before starting the display clock), then must
	// stay ahead of consumption.
	perByte := float64(time.Second) / videoRate
	buf := make([]byte, playerBuf)
	if _, err := f.ReadAt(buf, 0); err != nil {
		log.Fatalf("prebuffer: %v", err)
	}
	late := 0
	start := cluster.Net.Now()
	for off := int64(0); off < videoLen; off += playerBuf {
		if _, err := f.ReadAt(buf, off); err != nil {
			log.Fatalf("read at %d: %v", off, err)
		}
		// This buffer must be in memory before the display clock
		// reaches it.
		deadline := start + time.Duration(perByte*float64(off+playerBuf))
		if cluster.Net.Now() > deadline {
			late++
		}
	}
	elapsed := cluster.Net.Now() - start
	rate := float64(videoLen) / elapsed.Seconds() / 1e6
	fmt.Printf("streamed %d MB in %.1f modeled seconds: %.2f MB/s delivered (need 1.00), %d/%d late buffers\n",
		videoLen>>20, elapsed.Seconds(), rate, late, videoLen/playerBuf)
	if late == 0 && rate >= 1.0 {
		fmt.Println("continuous-media deadline met: two striped Ethernets deliver what one cannot")
	}
}
