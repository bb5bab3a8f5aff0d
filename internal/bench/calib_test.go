package bench

import (
	"fmt"
	"os"
	"testing"
	"time"

	"swift/internal/core"
)

// TestCalibrate sweeps calibration knobs; enabled with SWIFT_CALIB=1.
func TestCalibrate(t *testing.T) {
	if os.Getenv("SWIFT_CALIB") == "" {
		t.Skip("set SWIFT_CALIB=1 to run")
	}
	size := 3 << 20
	data := pattern(size, 1)
	for _, rb := range []int64{8184, 16368, 32736, 65472} {
		for _, scpu := range []time.Duration{250e3, 400e3, 520e3} {
			cl, err := NewSwiftCluster(Options{Agents: 3, Scale: 6, SendCPU: scpu, Client: core.Config{RequestBytes: rb}})
			if err != nil {
				t.Fatal(err)
			}
			f, err := cl.Client.Open("c", core.OpenFlags{Create: true, Truncate: true})
			if err != nil {
				t.Fatal(err)
			}
			start := cl.Net.Now()
			if _, err := f.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			w := float64(size) / 1024 / (cl.Net.Now() - start).Seconds()
			buf := make([]byte, size)
			start = cl.Net.Now()
			if _, err := f.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
			r := float64(size) / 1024 / (cl.Net.Now() - start).Seconds()
			fmt.Printf("req=%5d sendCPU=%v  write=%4.0f read=%4.0f KB/s\n", rb, scpu, w, r)
			f.Close()
			cl.Close()
		}
	}
}
