// Command clusterbench measures Eden on its real path: a fresh
// two-process edennode cluster over TCP loopback, each node on the
// fsync'd file store, driven by two closed-loop callers on an
// in-process client kernel. See README.md for the workloads, the
// metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"eden/internal/locator"
	"eden/internal/telemetry"
)

// repeats is how many times an untraced run of each workload sets a
// fresh cluster up and measures it, each time for a repeats-th of
// --seconds. Each repeat's figures are whole (every operation of its
// window counts); overRepeats says how the reported value is taken
// over the repeats. The more repeats a run spreads over its time, the
// more of the shared host's quiet stretches it samples.
// The counter workloads set up in a fraction of a second, so they take
// many short windows; efs-history's preload takes about two seconds,
// so it takes fewer, longer ones.
var repeats = map[string]int{"invoke-read": 20, "durable-write": 20, "efs-history": 10}

// runLimit bounds one benchmark process; past it every node is killed
// and the run fails.
const runLimit = 170 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: invoke-read, durable-write or efs-history")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 50, fmt.Sprintf("measured seconds, split over the workload's repeats (efs-history runs %d commits per file per second instead)", efsCommitsPerFilePerSecond))
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: an untraced and a traced run, per-layer metrics")
	bin := flag.String("bin", "", "edennode binary")
	work := flag.String("work", "", "directory for the store directories and span files")
	flag.Parse()
	if *bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: clusterbench -bin <edennode> -work <dir> -workload <name> [-seed n] [-seconds s] [-trace 0|1]")
		return 2
	}
	if _, err := newWorkload(*name, *seed, time.Second); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	window := time.Duration(*seconds) * time.Second / time.Duration(repeats[*name])

	dir := filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	defer killAll()
	abort := func(why string) {
		fmt.Fprintf(os.Stderr, "clusterbench: %s; stopping nodes\n", why)
		killAll()
		_ = os.RemoveAll(dir)
		os.Exit(1)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() { abort(fmt.Sprint(<-sig)) }()
	watchdog := time.AfterFunc(runLimit, func() { abort(fmt.Sprintf("run exceeded %v", runLimit)) })
	defer watchdog.Stop()

	fmt.Printf("env nproc=%d GOMAXPROCS=%d go=%s seed=%d workload=%s seconds=%d window=%v trace=%d callers=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *seed, *name, *seconds, window, *trace, callers)

	var out []metric
	attempted, failed := 0, 0
	correct := true
	report := func(p *phaseResult) {
		p.print()
		if p.problem != nil {
			correct = false
			fmt.Printf("FAIL %s: %v\n", p.label, p.problem)
		}
	}
	if *trace == 0 {
		var each []metrics
		for r := 0; r < repeats[*name]; r++ {
			p, err := runPhase(*bin, filepath.Join(dir, fmt.Sprintf("repeat%d", r)), *name, *seed, window, false, r == 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "clusterbench:", err)
				return 1
			}
			p.label = fmt.Sprintf("repeat %d", r+1)
			report(p)
			ms := endToEnd(p)
			for _, m := range ms {
				fmt.Printf("[%s] %s %.3f %s\n", p.label, m.name, m.value, m.unit)
			}
			attempted, failed = attempted+p.attempted, failed+p.failed
			each = append(each, ms)
		}
		out = overAll(each)
	} else {
		base, err := runPhase(*bin, filepath.Join(dir, "untraced"), *name, *seed, window, false, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "clusterbench:", err)
			return 1
		}
		report(base)
		p, err := runPhase(*bin, filepath.Join(dir, "traced"), *name, *seed, window, true, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "clusterbench:", err)
			return 1
		}
		report(p)
		out = perLayer(p, base)
		attempted, failed = p.attempted, p.failed
		path := filepath.Join(*work, "spans", *name+".csv.gz")
		if err := writeSpans(path, p.spans); err != nil {
			fmt.Fprintln(os.Stderr, "clusterbench: writing spans:", err)
		} else {
			fmt.Printf("spans %d written to %s\n", len(p.spans), path)
		}
	}

	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, m := range out {
		fmt.Printf("metric %-36s %14.3f %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clusterbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// result is the last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseResult is everything one measured run of a workload observed.
type phaseResult struct {
	label     string
	workload  string
	fs        [2]string
	setupS    float64
	attempted int
	failed    int
	firstErr  error
	conflicts int
	lat       []int64 // latencies of completed operations, ns, sorted
	elapsed   time.Duration

	// Node process counters across the timed window; hwmKB at its end.
	procBefore, procAfter [2]procStat
	hostBefore, hostAfter hostCPU
	// Telemetry across the timed window (traced runs only): each
	// node's /metrics and the bench kernel's registry.
	nodeBefore, nodeAfter   [2]telemetry.Snapshot
	benchBefore, benchAfter telemetry.Snapshot
	locBefore, locAfter     locator.Stats
	spans                   []span
	framesOut, framesIn     int64
	bytesOut, bytesIn       int64
	invokeReqs              int64

	checks  []string
	problem error // a failed correctness or restart check
}

// runPhase sets a fresh cluster up, runs the workload on it for
// window (efs-history: its fixed work for window), then checks its
// outputs and, when restart is set and the workload is durable, that
// they survive a SIGKILL of node 1. One restart check per process
// keeps a run within its time budget.
func runPhase(bin, dir, name string, seed int64, window time.Duration, traced, restart bool) (*phaseResult, error) {
	p := &phaseResult{label: "untraced", workload: name}
	if traced {
		p.label = "traced"
	}
	w, err := newWorkload(name, seed, window)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	c, err := startCluster(bin, dir, traced)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	if err := w.setup(c); err != nil {
		return nil, fmt.Errorf("%s setup: %w", name, err)
	}
	p.setupS = time.Since(start).Seconds()
	p.fs = c.fs

	if err := p.sample(c, &p.procBefore, &p.nodeBefore, &p.hostBefore); err != nil {
		return nil, err
	}
	c.tracer.setOwners(w.owners())
	c.tracer.reset()
	p.benchBefore = c.tel.Snapshot()
	p.locBefore = c.k.Locator().Stats()

	var mu sync.Mutex
	var wg sync.WaitGroup
	start = time.Now()
	deadline := start.Add(window)
	for caller := 0; caller < callers; caller++ {
		wg.Add(1)
		go func(caller int) {
			defer wg.Done()
			lat := make([]int64, 0, 1<<16)
			attempted, failed := 0, 0
			var firstErr error
			for w.more(caller, deadline) {
				sp := c.tracer.begin(caller, spanOp)
				t0 := time.Now()
				err := w.op(c, caller)
				d := time.Since(t0)
				c.tracer.end(caller, sp)
				attempted++
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				lat = append(lat, int64(d))
			}
			mu.Lock()
			p.lat = append(p.lat, lat...)
			p.attempted += attempted
			p.failed += failed
			if p.firstErr == nil {
				p.firstErr = firstErr
			}
			mu.Unlock()
		}(caller)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	sort.Slice(p.lat, func(i, j int) bool { return p.lat[i] < p.lat[j] })

	if err := p.sample(c, &p.procAfter, &p.nodeAfter, &p.hostAfter); err != nil {
		return nil, err
	}
	p.benchAfter = c.tel.Snapshot()
	p.locAfter = c.k.Locator().Stats()
	if t := c.tracer; t != nil {
		p.spans = t.flatten()
		p.framesOut, p.framesIn = t.framesOut.Load(), t.framesIn.Load()
		p.bytesOut, p.bytesIn = t.bytesOut.Load(), t.bytesIn.Load()
		p.invokeReqs = t.invokeReqs.Load()
	}
	if e, ok := w.(*efsLoad); ok {
		p.conflicts = e.conflictCount()
	}

	// Output checks: no operation failed (disjoint per-caller sets
	// leave a correct build no conflict), every reply during the run
	// was right, and the cluster now serves every acknowledged value.
	if p.failed != 0 {
		p.problem = fmt.Errorf("%d of %d operations failed, first: %w", p.failed, p.attempted, p.firstErr)
		return p, nil
	}
	if err := w.violation(); err != nil {
		p.problem = fmt.Errorf("wrong reply during the run: %w", err)
		return p, nil
	}
	if err := w.check(c); err != nil {
		p.problem = fmt.Errorf("output check: %w", err)
		return p, nil
	}
	p.checks = append(p.checks, "output check passed: every reply and every acknowledged value is correct")
	if restart && w.durable() {
		if err := c.restartNode(0); err != nil {
			return nil, err
		}
		if err := w.check(c); err != nil {
			p.problem = fmt.Errorf("restart check: %w", err)
			return p, nil
		}
		p.checks = append(p.checks, "restart check passed: node 1 was SIGKILLed and restarted on its store, and serves every acknowledged value "+
			"(a process-kill check: the OS page cache survives it, so this is not a power-loss check)")
	}
	return p, nil
}

// sample reads /proc for the host and both nodes and, when traced,
// the nodes' /metrics.
func (p *phaseResult) sample(c *cluster, proc *[2]procStat, snap *[2]telemetry.Snapshot, host *hostCPU) error {
	var err error
	if *host, err = readHostCPU(); err != nil {
		return err
	}
	for i, n := range c.nodes {
		if proc[i], err = n.proc(); err != nil {
			return fmt.Errorf("node %d: %w", n.num, err)
		}
		if snap[i], err = n.snapshot(); err != nil {
			return err
		}
	}
	return nil
}

func (p *phaseResult) print() {
	fmt.Printf("[%s] store filesystems n1=%s n2=%s\n", p.label, p.fs[0], p.fs[1])
	fmt.Printf("[%s] setup %.3f s\n", p.label, p.setupS)
	fmt.Printf("[%s] %d attempted, %d failed (error_ratio %.6f), %d latency samples, %.3f s\n",
		p.label, p.attempted, p.failed, p.errorRatio(), len(p.lat), p.elapsed.Seconds())
	fmt.Printf("[%s] host CPU time taken by other virtual machines (steal) during the run: %.1f%%\n",
		p.label, 100*p.steal())
	if p.firstErr != nil {
		fmt.Printf("[%s] first failure: %v\n", p.label, p.firstErr)
	}
	for _, s := range p.checks {
		fmt.Printf("[%s] %s\n", p.label, s)
	}
}

// steal is the share of the host's CPU time during the timed run that
// the hypervisor gave to other virtual machines.
func (p *phaseResult) steal() float64 {
	return ratio(float64(p.hostAfter.steal-p.hostBefore.steal), float64(p.hostAfter.total-p.hostBefore.total))
}

func (p *phaseResult) errorRatio() float64 {
	if p.attempted == 0 {
		return 0
	}
	return float64(p.failed) / float64(p.attempted)
}
