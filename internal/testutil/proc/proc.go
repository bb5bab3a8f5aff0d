// Package proc runs the repository's binaries — swiftd, swiftctl and
// swift-load — as real processes for end-to-end tests over loopback
// UDP and HTTP.
//
// Main, called from a package's TestMain, builds the binaries once per
// test binary from this module, offline, into a temporary directory.
// Servers bind ports the kernel picks (`-port 0`, `127.0.0.1:0`) and the
// harness learns their addresses from the startup lines they log; a
// process whose address others need before it starts (a mediator's
// peers) gets a port from ReservePort. Readiness is a polled condition,
// never a fixed sleep, and every process is killed in t.Cleanup.
//
//	func TestMain(m *testing.M) { proc.Main(m) }
package proc

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Timeout bounds every wait: a process exiting, a log line appearing, a
// polled condition turning true. A case that hits it fails, and its
// processes are killed by the cleanup.
const Timeout = 2 * time.Minute

// AnyAddr is the listen address that lets the kernel pick the port.
const AnyAddr = "127.0.0.1:0"

var binDir string

// Build compiles swiftd, swiftctl and swift-load into dir from the
// module holding the working directory, without touching the network.
func Build(dir string) error {
	gomod, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return fmt.Errorf("go env GOMOD: %w", err)
	}
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/swiftd", "./cmd/swiftctl", "./cmd/swift-load")
	cmd.Dir = filepath.Dir(strings.TrimSpace(string(gomod)))
	cmd.Env = append(os.Environ(), "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

// Main builds the binaries into a temporary directory, runs the tests
// and exits with their status. Use it as the body of TestMain.
func Main(m *testing.M) {
	dir, err := os.MkdirTemp("", "swift-proc-")
	if err == nil {
		err = Build(dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "proc:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// Proc is one running binary. Its stdout and stderr go to files in the
// test's temporary directory.
type Proc struct {
	t              testing.TB
	cmd            *exec.Cmd
	stdout, stderr string // file paths
	done           chan struct{}
	err            error // the exit status; set before done closes
}

// Start launches the named binary with args. The process is killed in
// t.Cleanup if it is still running then, and its output is logged if
// the test has failed: a process the test waited for has had its say.
func Start(t testing.TB, bin string, args ...string) *Proc {
	t.Helper()
	if binDir == "" {
		t.Fatal("proc: binaries not built (call proc.Main from TestMain)")
	}
	p := &Proc{t: t, cmd: exec.Command(filepath.Join(binDir, bin), args...), done: make(chan struct{})}
	dir := t.TempDir()
	outf, err := os.CreateTemp(dir, bin+"-*.stdout")
	if err != nil {
		t.Fatal(err)
	}
	errf, err := os.CreateTemp(dir, bin+"-*.stderr")
	if err != nil {
		t.Fatal(err)
	}
	p.stdout, p.stderr = outf.Name(), errf.Name()
	p.cmd.Stdout, p.cmd.Stderr = outf, errf
	err = p.cmd.Start()
	outf.Close()
	errf.Close()
	if err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		select {
		case <-p.done:
			return
		default:
		}
		p.cmd.Process.Kill()
		<-p.done
		if t.Failed() {
			t.Logf("%s:\n--- stdout\n%s--- stderr\n%s", p, p.Stdout(), p.Stderr())
		}
	})
	return p
}

// String is the command line.
func (p *Proc) String() string {
	return filepath.Base(p.cmd.Path) + " " + strings.Join(p.cmd.Args[1:], " ")
}

// Run starts the named binary, waits for it to exit and returns what it
// printed with its exit error.
func Run(t testing.TB, bin string, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	p := Start(t, bin, args...)
	err = p.Wait()
	return p.Stdout(), p.Stderr(), err
}

// MustRun is Run that fails the test unless the binary exits zero.
func MustRun(t testing.TB, bin string, args ...string) (stdout, stderr string) {
	t.Helper()
	p := Start(t, bin, args...)
	p.WaitOK()
	return p.Stdout(), p.Stderr()
}

// Stdout returns everything the process has written to stdout so far.
func (p *Proc) Stdout() string { return readFile(p.t, p.stdout) }

// Stderr returns everything the process has written to stderr so far.
func (p *Proc) Stderr() string { return readFile(p.t, p.stderr) }

func readFile(t testing.TB, path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("proc: %v", err)
	}
	return string(b)
}

// Signal sends sig to the process.
func (p *Proc) Signal(sig os.Signal) {
	p.t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil {
		p.t.Fatalf("signal %s: %v", p, err)
	}
}

// Wait waits for the process to exit and returns its exit error. It
// fails the test if the process outlives Timeout.
func (p *Proc) Wait() error {
	p.t.Helper()
	select {
	case <-p.done:
		return p.err
	case <-time.After(Timeout):
		p.t.Fatalf("%s still running after %v", p, Timeout)
		return nil
	}
}

// WaitOK waits for the process and fails the test, showing its output,
// unless it exited zero.
func (p *Proc) WaitOK() {
	p.t.Helper()
	if err := p.Wait(); err != nil {
		p.t.Fatalf("%s: %v\n--- stdout\n%s--- stderr\n%s", p, err, p.Stdout(), p.Stderr())
	}
}

// WaitFor polls the process's stdout and stderr until re matches one of
// them and returns the match with its submatches.
func (p *Proc) WaitFor(re *regexp.Regexp) []string {
	p.t.Helper()
	var m []string
	p.until(fmt.Sprintf("print %q", re), func(stdout, stderr string) bool {
		if m = re.FindStringSubmatch(stderr); m == nil {
			m = re.FindStringSubmatch(stdout)
		}
		return m != nil
	})
	return m
}

// until polls cond over the process's output, failing the test if the
// process exits before cond holds or Timeout passes.
func (p *Proc) until(what string, cond func(stdout, stderr string) bool) {
	p.t.Helper()
	Eventually(p.t, p.String()+" to "+what, func() bool {
		exited := false
		select {
		case <-p.done:
			exited = true // the output read below is then complete
		default:
		}
		stdout, stderr := p.Stdout(), p.Stderr()
		if cond(stdout, stderr) {
			return true
		}
		if exited {
			p.t.Fatalf("%s exited (%v) before it did: %s\n--- stdout\n%s--- stderr\n%s",
				p, p.err, what, stdout, stderr)
		}
		return false
	})
}

// Eventually polls cond until it is true, failing the test with what
// after Timeout.
func Eventually(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(Timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", Timeout, what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Swiftd is a running swiftd with the addresses its roles bound; a role
// the flags did not start has an empty address.
type Swiftd struct {
	*Proc
	Addrs
}

// StartSwiftd launches swiftd with args and returns once every role the
// flags start has logged the address it serves on: a store (-mem or
// -dir) an agent, -mediator a replica, -metrics the endpoint.
func StartSwiftd(t testing.TB, args ...string) *Swiftd {
	t.Helper()
	p := Start(t, "swiftd", args...)
	set := func(flag string) bool { return slices.Contains(args, flag) }
	var got Addrs
	p.until("log the addresses it serves on", func(_, stderr string) bool {
		got = ParseAddrs(stderr)
		return (got.Agent != "") == (set("-mem") || set("-dir")) &&
			(got.Mediator != "") == set("-mediator") &&
			(got.Metrics != "") == set("-metrics")
	})
	return &Swiftd{Proc: p, Addrs: got}
}

// Addrs are the addresses swiftd reports in its startup lines.
type Addrs struct {
	Agent    string // storage agent control address, HOST:PORT
	Mediator string // mediator replica control address, HOST:PORT
	Metrics  string // telemetry endpoint, HOST:PORT
}

// MetricsURL is the base URL of the telemetry endpoint.
func (a Addrs) MetricsURL() string { return "http://" + a.Metrics }

var (
	agentLine    = regexp.MustCompile(`storage agent serving on (\S+)`)
	mediatorLine = regexp.MustCompile(`mediator replica "[^"]*" serving on (\S+)`)
	// MetricsLine matches the line swiftd and swift-load print once
	// their telemetry endpoint is up; its submatch is HOST:PORT.
	MetricsLine = regexp.MustCompile(`metrics on http://(\S+)/metrics`)
)

// ParseAddrs reads swiftd's startup lines out of its log.
func ParseAddrs(log string) Addrs {
	sub := func(re *regexp.Regexp) string {
		if m := re.FindStringSubmatch(log); m != nil {
			return m[1]
		}
		return ""
	}
	return Addrs{Agent: sub(agentLine), Mediator: sub(mediatorLine), Metrics: sub(MetricsLine)}
}

// ReservePort returns a loopback UDP port that was free a moment ago,
// for a process whose address others must be told before it starts.
// The kernel picks ephemeral ports at random, so a concurrent run
// taking the same one in the gap is unlikely.
func ReservePort(t testing.TB) string {
	t.Helper()
	c, err := net.ListenPacket("udp", AnyAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	return strconv.Itoa(c.LocalAddr().(*net.UDPAddr).Port)
}

// Get fetches url and returns the body, failing the test on any error
// or a non-2xx status.
func Get(t testing.TB, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode/100 != 2 {
		t.Fatalf("GET %s: %s %v\n%s", url, resp.Status, err, body)
	}
	return string(body)
}

// Metric sums every sample of the named series, whatever its labels, in
// a Prometheus text exposition; ok is false when the series is absent.
func Metric(text, name string) (sum float64, ok bool) {
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line) // the value is last, even if a label holds a space
		if len(f) < 2 || (f[0] != name && !strings.HasPrefix(f[0], name+"{")) {
			continue
		}
		if v, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			sum, ok = sum+v, true
		}
	}
	return sum, ok
}

// Scrape reads the named series from a telemetry endpoint's /metrics,
// failing the test if the series is absent.
func Scrape(t testing.TB, a Addrs, name string) float64 {
	t.Helper()
	v, ok := Metric(Get(t, a.MetricsURL()+"/metrics"), name)
	if !ok {
		t.Fatalf("%s/metrics has no %s", a.MetricsURL(), name)
	}
	return v
}
