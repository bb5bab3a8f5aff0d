// Quickstart: start three Swift storage agents over real UDP on the
// loopback interface, stripe an object across them, and read it back.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"swift"
	"swift/internal/transport/udpnet"
)

func main() {
	host := udpnet.NewHost("127.0.0.1")

	// Each agent would normally be its own machine running swiftd;
	// here they share the process for a self-contained demo.
	var addrs []string
	for i := 0; i < 3; i++ {
		a, err := swift.StartAgent(host, swift.NewMemStore(), swift.AgentConfig{
			Port: fmt.Sprintf("%d", 17070+i),
		})
		if err != nil {
			log.Fatalf("agent %d: %v", i, err)
		}
		defer a.Close()
		addrs = append(addrs, a.Addr())
	}

	fs, err := swift.Dial(swift.Config{
		Host:   host,
		Agents: addrs,
		Unit:   16 * 1024,
	})
	if err != nil {
		log.Fatalf("dial: %v", err)
	}
	defer fs.Close()

	// Write one megabyte striped over the three agents.
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	f, err := fs.Create("demo/object")
	if err != nil {
		log.Fatalf("create: %v", err)
	}
	if _, err := f.Write(data); err != nil {
		log.Fatalf("write: %v", err)
	}
	if err := f.Close(); err != nil {
		log.Fatalf("close: %v", err)
	}
	fmt.Printf("wrote %d bytes striped over %d agents (unit 16 KB)\n", len(data), len(addrs))

	// Reopen and verify.
	g, err := fs.Open("demo/object")
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	defer g.Close()
	back := make([]byte, g.Size())
	if _, err := g.ReadAt(back, 0); err != nil {
		log.Fatalf("read: %v", err)
	}
	if !bytes.Equal(back, data) {
		log.Fatal("read-back mismatch")
	}
	fmt.Printf("read %d bytes back — contents verified\n", len(back))

	size, err := fs.Stat("demo/object")
	if err != nil {
		log.Fatalf("stat: %v", err)
	}
	names, err := fs.List()
	if err != nil {
		log.Fatalf("list: %v", err)
	}
	fmt.Printf("stat: %d bytes; objects: %v\n", size, names)
}
