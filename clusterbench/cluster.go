package main

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"eden/internal/capability"
	"eden/internal/efs"
	"eden/internal/kernel"
	"eden/internal/telemetry"
	"eden/internal/transport"
)

// benchNode is the node number of the benchmark's own client kernel.
const benchNode = 9

var (
	reListening = regexp.MustCompile(`listening on`)
	reMetrics   = regexp.MustCompile(`telemetry on http://(\S+)/metrics`)
	reCap       = regexp.MustCompile(`cap ([0-9a-f]+)`)
)

// live holds every node process this benchmark has started and not yet
// reaped, so a signal or the watchdog can kill them all before exit.
var live = struct {
	sync.Mutex
	procs map[*node]bool
}{procs: map[*node]bool{}}

// killAll SIGKILLs and reaps every live node process.
func killAll() {
	live.Lock()
	procs := make([]*node, 0, len(live.procs))
	for n := range live.procs {
		procs = append(procs, n)
	}
	live.Unlock()
	for _, n := range procs {
		n.kill()
	}
}

// node is one edennode child process and its console.
type node struct {
	num        uint32
	args       []string
	cmd        *exec.Cmd
	stdin      io.WriteCloser
	readerDone chan struct{}

	mu  sync.Mutex
	out strings.Builder

	reapOnce sync.Once
	metrics  string // host:port of the -metrics endpoint, "" when untraced
}

// startNode launches edennode with args and waits until it listens.
func startNode(bin string, num uint32, args []string) (*node, error) {
	cmd := exec.Command(bin, args...)
	// The node dies with the benchmark even if the benchmark itself is
	// killed before it can reap it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	n := &node{num: num, args: args, cmd: cmd, stdin: stdin, readerDone: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start node %d: %w", num, err)
	}
	live.Lock()
	live.procs[n] = true
	live.Unlock()
	go func() {
		defer close(n.readerDone)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64*1024), 1024*1024)
		for sc.Scan() {
			n.mu.Lock()
			n.out.WriteString(sc.Text())
			n.out.WriteByte('\n')
			n.mu.Unlock()
		}
	}()
	if _, err := n.expect(reListening, 1, 10*time.Second); err != nil {
		n.kill()
		return nil, err
	}
	if m, err := n.expect(reMetrics, 1, 0); err == nil {
		n.metrics = m[0][1]
	}
	return n, nil
}

func (n *node) output() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.out.String()
}

// tail returns the last bytes of the console output, for diagnostics.
func (n *node) tail() string {
	out := n.output()
	if len(out) > 2000 {
		out = out[len(out)-2000:]
	}
	return out
}

// send writes one console command line.
func (n *node) send(line string) error {
	_, err := io.WriteString(n.stdin, line+"\n")
	return err
}

// expect polls the console output until re has matched at least count
// times, and returns all matches. A zero timeout checks once.
func (n *node) expect(re *regexp.Regexp, count int, timeout time.Duration) ([][]string, error) {
	deadline := time.Now().Add(timeout)
	for {
		if m := re.FindAllStringSubmatch(n.output(), -1); len(m) >= count {
			return m, nil
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("node %d: console never matched %v %d times; output tail:\n%s", n.num, re, count, n.tail())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// kill SIGKILLs the process and waits until it and its output reader
// have ended. Safe to call more than once.
func (n *node) kill() {
	n.reapOnce.Do(func() {
		_ = n.cmd.Process.Kill()
		_ = n.cmd.Wait()
		<-n.readerDone
		live.Lock()
		delete(live.procs, n)
		live.Unlock()
	})
}

// procStat is what /proc says about one node process.
type procStat struct {
	cpuUS      int64 // utime + stime
	readBytes  int64 // bytes the process caused to be read from storage
	writeBytes int64 // bytes the process caused to be written to storage
	hwmKB      int64 // peak resident set size (VmHWM)
}

// clockTicksPerSecond is USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTicksPerSecond = 100

func (n *node) proc() (procStat, error) {
	var s procStat
	pid := n.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	f := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:]))
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	s.cpuUS = (utime + stime) * 1e6 / clockTicksPerSecond
	ioText, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return s, err
	}
	s.readBytes = procField(string(ioText), "read_bytes:")
	s.writeBytes = procField(string(ioText), "write_bytes:")
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	s.hwmKB = procField(string(status), "VmHWM:")
	return s, nil
}

// hostCPU is the machine's CPU time from /proc/stat, in clock ticks:
// the total, and the steal a hypervisor gave to other virtual machines.
type hostCPU struct{ total, steal int64 }

func readHostCPU() (hostCPU, error) {
	var h hostCPU
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user and nice.
	if len(f) < 9 || f[0] != "cpu" {
		return h, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, v := range f[1:9] {
		n, _ := strconv.ParseInt(v, 10, 64)
		h.total += n
		if i == 7 {
			h.steal = n
		}
	}
	return h, nil
}

// procField returns the integer after key at the start of a line.
func procField(text, key string) int64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

var httpClient = &http.Client{Timeout: 5 * time.Second}

// snapshot fetches the node's /metrics telemetry snapshot.
func (n *node) snapshot() (telemetry.Snapshot, error) {
	var s telemetry.Snapshot
	if n.metrics == "" {
		return s, nil
	}
	resp, err := httpClient.Get("http://" + n.metrics + "/metrics")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return s, fmt.Errorf("node %d /metrics: %w", n.num, err)
	}
	return s, nil
}

// cluster is a fresh two-node edennode system on file stores plus the
// benchmark's client kernel, which reaches both nodes over TCP.
type cluster struct {
	bin    string
	dir    string
	nodes  [2]*node
	k      *kernel.Kernel
	tel    *telemetry.Registry // bench kernel telemetry; nil untraced
	tracer *tracer             // nil untraced
	fs     [2]string           // filesystem type of each store directory
}

// startCluster starts nodes 1 and 2 with file stores under dir and a
// client kernel wired to both. Traced clusters run the nodes with
// -metrics and give the client kernel a telemetry registry and a
// tracing transport.
func startCluster(bin, dir string, traced bool) (*cluster, error) {
	c := &cluster{bin: bin, dir: dir}
	ok := false
	defer func() {
		if !ok {
			c.stop()
		}
	}()
	for i := range c.nodes {
		sd := c.storeDir(i)
		if err := os.MkdirAll(sd, 0o755); err != nil {
			return nil, err
		}
		fs, err := checkStoreFS(sd)
		if err != nil {
			return nil, err
		}
		c.fs[i] = fs
	}
	tcp, err := transport.NewTCPWithConfig(benchNode, "127.0.0.1:0", transport.Config{
		DialTimeout:   500 * time.Millisecond,
		RedialBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	addrs, err := freePorts(len(c.nodes))
	if err != nil {
		_ = tcp.Close()
		return nil, err
	}
	for i, addr := range addrs {
		tcp.AddPeer(uint32(i+1), addr)
	}
	reg := kernel.NewRegistry()
	if err := efs.RegisterType(reg); err != nil {
		_ = tcp.Close()
		return nil, err
	}
	cfg := kernel.DefaultConfig(benchNode, "bench")
	var tr transport.Transport = tcp
	if traced {
		c.tel = telemetry.New()
		cfg.Telemetry = c.tel
		c.tracer = newTracer()
		tr = &tracingTransport{Transport: tcp, t: c.tracer}
	}
	c.k = kernel.New(cfg, tr, reg, nil)
	c.k.Locator().DefaultTimeout = 500 * time.Millisecond

	for i := range c.nodes {
		num := i + 1
		other := 3 - num
		args := []string{
			"-node", strconv.Itoa(num),
			"-listen", addrs[i],
			"-peers", fmt.Sprintf("%d=%s,%d=%s", other, addrs[other-1], benchNode, tcp.Addr()),
			"-store", c.storeDir(i),
		}
		if traced {
			args = append(args, "-metrics", "127.0.0.1:0")
		}
		n, err := startNode(bin, uint32(num), args)
		if err != nil {
			return nil, err
		}
		c.nodes[i] = n
	}
	ok = true
	return c, nil
}

func (c *cluster) storeDir(i int) string {
	return filepath.Join(c.dir, fmt.Sprintf("n%d", i+1))
}

// stop closes the client kernel, kills both nodes and deletes the
// stores.
func (c *cluster) stop() {
	if c.k != nil {
		_ = c.k.Close()
	}
	for _, n := range c.nodes {
		if n != nil {
			n.kill()
		}
	}
	_ = os.RemoveAll(c.dir)
}

// restartNode SIGKILLs node i and starts it again on the same store
// directory, address and flags.
func (c *cluster) restartNode(i int) error {
	old := c.nodes[i]
	old.kill()
	n, err := startNode(c.bin, old.num, old.args)
	if err != nil {
		return err
	}
	c.nodes[i] = n
	return nil
}

// createCounters creates count counters on node i through its console.
func (c *cluster) createCounters(i, count int) ([]capability.Capability, error) {
	n := c.nodes[i]
	for j := 0; j < count; j++ {
		if err := n.send("create counter"); err != nil {
			return nil, err
		}
	}
	m, err := n.expect(reCap, count, 10*time.Second)
	if err != nil {
		return nil, err
	}
	caps := make([]capability.Capability, count)
	for j := range caps {
		raw, err := hex.DecodeString(m[j][1])
		if err != nil {
			return nil, err
		}
		cp, rest, err := capability.Decode(raw)
		if err != nil || len(rest) != 0 {
			return nil, fmt.Errorf("bad capability from node %d console: %v", n.num, err)
		}
		caps[j] = cp
	}
	return caps, nil
}

// freePorts returns n distinct loopback addresses whose ports are free
// now and lie below the kernel's ephemeral port range. An outgoing
// connection (the nodes and the bench kernel dial each other) takes
// its local port from that range, so it can take none of these before
// a node binds it or while a node restarts on it.
func freePorts(n int) ([]string, error) {
	low := 32768
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(b)); len(f) == 2 {
			if v, err := strconv.Atoi(f[0]); err == nil {
				low = v
			}
		}
	}
	const first = 1024
	if low <= first {
		return nil, fmt.Errorf("ephemeral ports start at %d: no room below them", low)
	}
	var held []net.Listener
	defer func() {
		for _, l := range held {
			_ = l.Close()
		}
	}()
	var addrs []string
	for try := 0; len(addrs) < n && try < 1000; try++ {
		addr := fmt.Sprintf("127.0.0.1:%d", first+rand.Intn(low-first))
		l, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		held = append(held, l)
		addrs = append(addrs, addr)
	}
	if len(addrs) < n {
		return nil, fmt.Errorf("found %d free ports below %d, want %d", len(addrs), low, n)
	}
	return addrs, nil
}

// Filesystem magic numbers from statfs(2).
var fsNames = map[int64]string{
	0x01021994: "tmpfs",
	0x858458f6: "ramfs",
	0xef53:     "ext2/3/4",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x794c7630: "overlayfs",
	0x2fc12fc1: "zfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0xf2f52010: "f2fs",
}

// checkStoreFS names the filesystem holding dir and refuses one kept in
// memory, where fsync costs nothing and a durable-write number would
// measure no device at all.
func checkStoreFS(dir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", fmt.Errorf("statfs %s: %w", dir, err)
	}
	magic := int64(st.Type)
	name, ok := fsNames[magic]
	if !ok {
		name = fmt.Sprintf("0x%x", magic)
	}
	if name == "tmpfs" || name == "ramfs" {
		return name, fmt.Errorf("store directory %s is on %s, where fsync is free; run from a checkout on a disk-backed filesystem", dir, name)
	}
	return name, nil
}
