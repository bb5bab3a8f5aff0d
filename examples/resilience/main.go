// Resilience: computed-copy redundancy surviving an agent failure, with
// detection and recovery fully automatic.
//
// Four storage agents hold a striped object with rotating XOR parity.
// One agent is killed mid-session; the next read discovers the failure,
// reconstructs the lost units from the survivors, and feeds the failure
// into the client's health lifecycle (healthy → suspect → down). Degraded
// writes keep the parity consistent. The agent is then restarted, and the
// client's background health monitor re-admits it on its own: it probes
// the agent back to life, reopens the file's session, and rebuilds the
// stale fragment from parity before the agent serves reads again. No
// manual intervention — no MarkDown, no explicit Rebuild.
//
//	go run ./examples/resilience
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"time"

	"swift"
	"swift/internal/transport/udpnet"
)

const victim = 2 // the agent that will fail

func main() {
	host := udpnet.NewHost("127.0.0.1")

	agents := make([]*swift.Agent, 4)
	addrs := make([]string, 4)
	start := func(i int) {
		a, err := swift.StartAgent(host, swift.NewMemStore(), swift.AgentConfig{
			Port: fmt.Sprintf("%d", 17170+i),
		})
		if err != nil {
			log.Fatalf("agent %d: %v", i, err)
		}
		agents[i] = a
		addrs[i] = a.Addr()
	}
	for i := range agents {
		start(i)
	}
	defer func() {
		for _, a := range agents {
			if a != nil {
				a.Close()
			}
		}
	}()

	fs, err := swift.Dial(swift.Config{
		Host:   host,
		Agents: addrs,
		Unit:   8 * 1024,
		Parity: true, // one rotating parity unit per stripe row
		// The background health monitor: probe every 200ms, and rebuild a
		// returning agent's fragments from parity before re-admitting it.
		Monitor: swift.MonitorConfig{Interval: 200 * time.Millisecond, Rebuild: true},
	})
	if err != nil {
		log.Fatalf("dial: %v", err)
	}
	defer fs.Close()

	data := make([]byte, 512<<10)
	rand.New(rand.NewSource(7)).Read(data)
	f, err := fs.Create("survivor")
	if err != nil {
		log.Fatalf("create: %v", err)
	}
	defer f.Close()
	if _, err := f.Write(data); err != nil {
		log.Fatalf("write: %v", err)
	}
	fmt.Printf("wrote %d KB over 4 agents with rotating parity\n", len(data)>>10)

	// Kill an agent while the file is open.
	agents[victim].Close()
	agents[victim] = nil
	fmt.Printf("agent %d killed\n", victim)

	// The next read discovers the failure, reconstructs, and marks the
	// agent in the failure-domain lifecycle.
	back := make([]byte, len(data))
	if _, err := f.ReadAt(back, 0); err != nil {
		log.Fatalf("degraded read: %v", err)
	}
	if !bytes.Equal(back, data) {
		log.Fatal("degraded read mismatch")
	}
	fmt.Printf("degraded read OK — %d KB reconstructed via XOR parity (agent %d now %v)\n",
		len(back)>>10, victim, fs.Health()[victim].State)

	// Degraded writes keep the parity consistent; the victim's units go
	// stale and will need a rebuild before it can serve reads again.
	patch := make([]byte, 64<<10)
	rand.New(rand.NewSource(8)).Read(patch)
	if _, err := f.WriteAt(patch, 100_000); err != nil {
		log.Fatalf("degraded write: %v", err)
	}
	copy(data[100_000:], patch)
	if _, err := f.ReadAt(back, 0); err != nil {
		log.Fatalf("read after degraded write: %v", err)
	}
	if !bytes.Equal(back, data) {
		log.Fatal("degraded write mismatch")
	}
	fmt.Println("degraded write OK — parity kept consistent around the failed agent")

	// Restart the agent (empty store: the machine came back reimaged).
	// The health monitor notices on its own: it probes the agent, reopens
	// the file's session, rebuilds the fragment from the survivors, and
	// returns the agent to service.
	start(victim)
	fmt.Printf("agent %d restarted; waiting for automatic re-admission...\n", victim)
	deadline := time.Now().Add(10 * time.Second)
	for fs.Health()[victim].State != swift.StateHealthy {
		if time.Now().After(deadline) {
			log.Fatalf("agent %d never re-admitted: %+v", victim, fs.Health()[victim])
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Printf("agent %d re-admitted automatically — session reopened, fragment rebuilt\n", victim)

	// A fully healthy read now succeeds without reconstruction, through
	// the same open file handle.
	if _, err := f.ReadAt(back, 0); err != nil {
		log.Fatalf("healthy read: %v", err)
	}
	if !bytes.Equal(back, data) {
		log.Fatal("post-readmit mismatch")
	}
	fmt.Println("post-readmit read OK — installation fully healthy again")
}
