// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the ablations DESIGN.md calls out and micro-benchmarks
// of the hot paths. Each evaluation benchmark reports the paper's metric
// via b.ReportMetric:
//
//	Tables 1-4, tcp:  modeled data-rates in KB/s (paper tables' cells)
//	Figure 3, 4:      mean response time in ms at a reference load
//	Figure 5, 6:      max sustainable data-rate in MB/s at 32 disks
//
// The full sweeps (all loads, all disk counts, eight samples) live in
// cmd/swift-bench and cmd/swift-sim; these benchmarks run one
// representative cell each so `go test -bench` stays tractable.
package swift_test

import (
	"math/rand"
	"testing"
	"time"

	"swift/internal/bench"
	"swift/internal/core"
	"swift/internal/ec"
	"swift/internal/simswift"
	"swift/internal/stripe"
	"swift/internal/wire"
)

const benchSizeMB = 2

// reportSwift runs b.N write+read samples on a cluster configuration and
// reports the modeled rates.
func reportSwift(b *testing.B, opts bench.Options) {
	b.Helper()
	var readSum, writeSum float64
	for i := 0; i < b.N; i++ {
		r, w, err := bench.MeasureSwift(opts, benchSizeMB, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		readSum += r
		writeSum += w
	}
	b.ReportMetric(readSum/float64(b.N), "readKB/s")
	b.ReportMetric(writeSum/float64(b.N), "writeKB/s")
}

// BenchmarkTable1SwiftOneEthernet regenerates Table 1's cell: Swift with
// three storage agents on one 10 Mb/s Ethernet (paper: reads ≈876-897,
// writes ≈860-882 KB/s).
func BenchmarkTable1SwiftOneEthernet(b *testing.B) {
	reportSwift(b, bench.Options{Agents: 3, Segments: 1})
}

// BenchmarkTable2LocalSCSI regenerates Table 2: the local SCSI disk
// (paper: reads ≈654-682, synchronous writes ≈314-316 KB/s).
func BenchmarkTable2LocalSCSI(b *testing.B) {
	var readSum, writeSum float64
	for i := 0; i < b.N; i++ {
		r, w, err := bench.MeasureSCSI(benchSizeMB, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		readSum += r
		writeSum += w
	}
	b.ReportMetric(readSum/float64(b.N), "readKB/s")
	b.ReportMetric(writeSum/float64(b.N), "writeKB/s")
}

// BenchmarkTable3NFS regenerates Table 3: the NFS server baseline
// (paper: reads ≈456-488, write-through writes ≈109-112 KB/s).
func BenchmarkTable3NFS(b *testing.B) {
	var readSum, writeSum float64
	for i := 0; i < b.N; i++ {
		r, w, err := bench.MeasureNFS(bench.Options{}, benchSizeMB, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		readSum += r
		writeSum += w
	}
	b.ReportMetric(readSum/float64(b.N), "readKB/s")
	b.ReportMetric(writeSum/float64(b.N), "writeKB/s")
}

// BenchmarkTable4SwiftTwoEthernets regenerates Table 4: six agents over
// two segments (paper: reads ≈1120-1150, writes ≈1660-1670 KB/s).
func BenchmarkTable4SwiftTwoEthernets(b *testing.B) {
	reportSwift(b, bench.Options{Agents: 6, Segments: 2})
}

// BenchmarkAblationTCPvsUDP regenerates §3's observation: the TCP-based
// first prototype never exceeded 45% of the Ethernet's capacity.
func BenchmarkAblationTCPvsUDP(b *testing.B) {
	reportSwift(b, bench.Options{Agents: 3, Segments: 1, StreamClient: true})
}

// BenchmarkAblationParity measures the computed-copy redundancy cost.
func BenchmarkAblationParity(b *testing.B) {
	reportSwift(b, bench.Options{Agents: 4, Client: core.Config{Parity: true}})
}

// BenchmarkAblationStripeUnit4K measures a small striping unit (the
// mediator's high-parallelism choice).
func BenchmarkAblationStripeUnit4K(b *testing.B) {
	reportSwift(b, bench.Options{Agents: 3, Client: core.Config{Unit: 4 << 10}})
}

// BenchmarkAblationReadWindow measures the literal one-packet-per-request
// read rule of the prototype.
func BenchmarkAblationReadWindow(b *testing.B) {
	reportSwift(b, bench.Options{Agents: 3, Client: core.Config{RequestBytes: 1364}})
}

// BenchmarkAblationAgents4 measures the saturating fourth agent.
func BenchmarkAblationAgents4(b *testing.B) {
	reportSwift(b, bench.Options{Agents: 4, Segments: 1})
}

// BenchmarkAblationReadAhead measures the client read-ahead window on an
// 8 KB sequential-read workload.
func BenchmarkAblationReadAhead(b *testing.B) {
	var sum float64
	for i := 0; i < b.N; i++ {
		s, err := bench.AblationReadAhead(bench.RunConfig{
			Samples: 1, SizesMB: []int{benchSizeMB}, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		sum += s.Read[len(s.Read)-1].Mean / s.Read[0].Mean
	}
	b.ReportMetric(sum/float64(b.N), "speedup")
}

// BenchmarkExtensionEDF runs the §6.1.2 deadline-scheduling extension at
// one contested load and reports both schedulers' miss fractions.
func BenchmarkExtensionEDF(b *testing.B) {
	var fifoMiss, edfMiss float64
	for i := 0; i < b.N; i++ {
		mk := func(edf bool) simswift.RTResult {
			return simswift.RunRT(simswift.RTConfig{
				Disks: 4,
				Base: simswift.Config{
					Drive:        simswift.Figure3Drive(),
					Unit:         32 * simswift.KB,
					RequestBytes: 256 * simswift.KB,
					Seed:         int64(i + 1),
				},
				Streams:        1,
				StreamBytes:    128 * simswift.KB,
				Period:         250 * time.Millisecond,
				Periods:        150,
				BackgroundRate: 12,
				EDF:            edf,
			})
		}
		fifoMiss += mk(false).MissFraction
		edfMiss += mk(true).MissFraction
	}
	b.ReportMetric(fifoMiss/float64(b.N)*100, "fifo-miss%")
	b.ReportMetric(edfMiss/float64(b.N)*100, "edf-miss%")
}

// BenchmarkExtensionParitySim runs the §6.1.1 simulator enhancement:
// write response with computed-copy redundancy.
func BenchmarkExtensionParitySim(b *testing.B) {
	var over float64
	for i := 0; i < b.N; i++ {
		plain, par := simswift.ParityImpact(8, 32*simswift.KB, 512*simswift.KB, 2)
		over += float64(par.MeanResponse)/float64(plain.MeanResponse) - 1
	}
	b.ReportMetric(over/float64(b.N)*100, "overhead%")
}

// BenchmarkFigure3ResponseVsLoad runs Figure 3's reference cell: 32 disks,
// 32 KB units, 1 MB requests at 20 req/s (paper: response well under the
// knee, ≈50-80 ms).
func BenchmarkFigure3ResponseVsLoad(b *testing.B) {
	var sum float64
	for i := 0; i < b.N; i++ {
		cfg := simswift.Figure3Config(32, 32*simswift.KB)
		cfg.Requests = 600
		cfg.Seed = int64(i + 1)
		r := simswift.Run(cfg, 20)
		sum += float64(r.MeanResponse.Milliseconds())
	}
	b.ReportMetric(sum/float64(b.N), "resp-ms")
}

// BenchmarkFigure4ResponseVsLoad runs Figure 4's reference cell: 16 disks,
// 4 KB units, 128 KB requests on the 1.5 MB/s drive at 10 req/s.
func BenchmarkFigure4ResponseVsLoad(b *testing.B) {
	var sum float64
	for i := 0; i < b.N; i++ {
		cfg := simswift.Figure4Config(16)
		cfg.Requests = 600
		cfg.Seed = int64(i + 1)
		r := simswift.Run(cfg, 10)
		sum += float64(r.MeanResponse.Milliseconds())
	}
	b.ReportMetric(sum/float64(b.N), "resp-ms")
}

// BenchmarkFigure5MaxRate4K runs Figure 5's headline point: maximum
// sustainable data-rate at 32 disks with 4 KB units (paper: ≈2 MB/s).
func BenchmarkFigure5MaxRate4K(b *testing.B) {
	var sum float64
	for i := 0; i < b.N; i++ {
		cfg := simswift.Figure5Config(simswift.Figure3Drive(), 32)
		cfg.Requests = 500
		cfg.Seed = int64(i + 1)
		rate, _ := simswift.MaxSustainableRate(cfg)
		sum += rate / 1e6
	}
	b.ReportMetric(sum/float64(b.N), "MB/s")
}

// BenchmarkFigure6MaxRate32K runs Figure 6's headline point: 32 disks
// with 32 KB units and 1 MB requests (paper: ≈12 MB/s).
func BenchmarkFigure6MaxRate32K(b *testing.B) {
	var sum float64
	for i := 0; i < b.N; i++ {
		cfg := simswift.Figure6Config(simswift.Figure3Drive(), 32)
		cfg.Requests = 500
		cfg.Seed = int64(i + 1)
		rate, _ := simswift.MaxSustainableRate(cfg)
		sum += rate / 1e6
	}
	b.ReportMetric(sum/float64(b.N), "MB/s")
}

// Micro-benchmarks of the hot paths.

func BenchmarkWireMarshal(b *testing.B) {
	payload := make([]byte, wire.MaxPayload)
	p := &wire.Packet{
		Header:  wire.Header{Type: wire.TData, ReqID: 1, Handle: 2, Offset: 3, Length: uint32(len(payload))},
		Payload: payload,
	}
	buf := make([]byte, 0, wire.MaxPacket)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := wire.AppendPacket(buf[:0], p)
		if err != nil {
			b.Fatal(err)
		}
		buf = out[:0]
	}
}

func BenchmarkWireUnmarshal(b *testing.B) {
	payload := make([]byte, wire.MaxPayload)
	buf, _ := wire.Marshal(&wire.Packet{
		Header:  wire.Header{Type: wire.TData, Length: uint32(len(payload))},
		Payload: payload,
	})
	var p wire.Packet
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wire.Unmarshal(buf, &p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParityXOR times the computed copy of a 3+1 row: the k=1
// codec, whose every coefficient is 1.
func BenchmarkParityXOR(b *testing.B) {
	codec, err := ec.New(3, 1)
	if err != nil {
		b.Fatal(err)
	}
	shards := make([][]byte, 4)
	rng := rand.New(rand.NewSource(1))
	for i := range shards {
		shards[i] = make([]byte, 32<<10)
		rng.Read(shards[i])
	}
	b.SetBytes(3 * 32 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := codec.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStripeRuns(b *testing.B) {
	l := stripe.Layout{Unit: 32 << 10, Agents: 8, Parity: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runs := l.Runs(12345, 4<<20)
		if len(runs) == 0 {
			b.Fatal("no runs")
		}
	}
}

func BenchmarkStripeLocate(b *testing.B) {
	l := stripe.Layout{Unit: 32 << 10, Agents: 8, Parity: true}
	var sink int64
	for i := 0; i < b.N; i++ {
		a, off := l.Locate(int64(i) * 7919)
		sink += int64(a) + off
	}
	_ = sink
}
