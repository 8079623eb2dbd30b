package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"eden"
	"eden/internal/kernel"
	"eden/internal/segment"
	"eden/internal/store"
	"eden/internal/telemetry"
	"eden/internal/transport"
)

// BenchReport is the machine-readable benchmark output, written as
// BENCH_<rev>.json. The CI bench job compares it against the
// checked-in bench_baseline.json and fails on throughput regressions.
type BenchReport struct {
	Rev string `json:"rev"`
	// Notes is free-form context for a committed report (what changed,
	// what it was measured against); tooling ignores it.
	Notes   string        `json:"notes,omitempty"`
	Results []BenchResult `json:"results"`
}

// BenchResult is one op class's throughput and latency distribution,
// the latter read from the telemetry registry's histograms.
type BenchResult struct {
	Name      string  `json:"name"`
	Ops       int     `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50Nanos  int64   `json:"p50_nanos"`
	P95Nanos  int64   `json:"p95_nanos"`
	P99Nanos  int64   `json:"p99_nanos"`
}

// benchType is a minimal type whose "ping" op returns its input — the
// cheapest possible invocation, so the numbers measure kernel and
// transport overhead rather than handler work.
func benchType() *eden.TypeManager {
	tm := eden.NewType("benchmark")
	tm.Op(eden.Operation{
		Name:    "ping",
		Access:  eden.AccessRead,
		Handler: func(c *eden.Call) { c.Return(c.Data) },
	})
	return tm
}

// hotReadWork models the paper's satellite-device read: a read-only
// operation that holds the representation for a short, fixed time
// (storage latency, decode work) rather than returning instantly.
// This is the workload the reader pool exists for — with an exclusive
// coordinator the holds serialize; with AccessRead fan-out they
// overlap even on one CPU.
const hotReadWork = 200 * time.Microsecond

// hotReadType is a type whose "scan" op reads a blob from the
// representation under the shared lock and simulates device latency
// while holding it.
func hotReadType() *eden.TypeManager {
	tm := eden.NewType("hotread")
	tm.Op(eden.Operation{
		Name:   "scan",
		Access: eden.AccessRead,
		Handler: func(c *eden.Call) {
			var n int
			c.Self().View(func(r *eden.Representation) {
				b, _ := r.Data("blob")
				n = len(b)
				time.Sleep(hotReadWork)
			})
			c.Return([]byte{byte(n), byte(n >> 8)})
		},
	})
	return tm
}

// replBenchType is the replica-bench workload: a mutable object with a
// hot AccessRead "scan" (per hotReadType) plus an exclusive "churn"
// write that holds the object for ~2ms per call and checkpoints when
// its argument asks — the duty-cycled writer that starves home reads
// and gives checkpoint shadows something to be stale against.
func replBenchType() *eden.TypeManager {
	tm := eden.NewType("replbench")
	tm.Op(eden.Operation{
		Name:   "scan",
		Access: eden.AccessRead,
		Handler: func(c *eden.Call) {
			var n int
			c.Self().View(func(r *eden.Representation) {
				b, _ := r.Data("blob")
				n = len(b)
				time.Sleep(hotReadWork)
			})
			c.Return([]byte{byte(n), byte(n >> 8)})
		},
	})
	tm.Op(eden.Operation{
		Name:   "churn",
		Access: eden.AccessWrite,
		Handler: func(c *eden.Call) {
			err := c.Self().Update(func(r *eden.Representation) error {
				b, _ := r.Data("blob")
				if len(b) > 0 {
					b[0]++
					r.SetData("blob", b)
				}
				return nil
			})
			if err != nil {
				c.Fail("churn: %v", err)
				return
			}
			// Hold write exclusivity for the work period: queued home
			// reads wait it out (writer preference), replica reads don't.
			time.Sleep(3 * time.Millisecond)
			if len(c.Data) > 0 && c.Data[0] == 1 {
				if err := c.Self().Checkpoint(); err != nil {
					c.Fail("checkpoint: %v", err)
				}
			}
		},
	})
	return tm
}

// nestedLagWork is the remote handler latency the pipelined-writer
// bench suspends on: long enough that overlapping the waits dominates
// fixed invocation overhead, short enough to keep the run brief.
const nestedLagWork = time.Millisecond

// lagType's "lag" op models a slow downstream object (a device, a
// storage server): it simply holds the caller for nestedLagWork.
func lagType() *eden.TypeManager {
	tm := eden.NewType("lag")
	tm.Op(eden.Operation{
		Name: "lag",
		Handler: func(c *eden.Call) {
			time.Sleep(nestedLagWork)
			c.Return(nil)
		},
	})
	return tm
}

// pipeWriteType is the writer-pipelining workload: an exclusive write
// that mutates, then performs a nested invocation of a remote lag
// object. "relay" uses Call.Invoke, releasing the object's
// exclusivity across the nested wait; "relayhold" is the comparator
// that keeps exclusivity via Call.Kernel().Invoke, serializing every
// writer end-to-end.
func pipeWriteType() *eden.TypeManager {
	relay := func(c *eden.Call, hold bool) {
		err := c.Self().Update(func(r *eden.Representation) error {
			b, _ := r.Data("n")
			if len(b) != 8 {
				b = make([]byte, 8)
			} else {
				b = append([]byte(nil), b...)
			}
			for i := 7; i >= 0; i-- {
				b[i]++
				if b[i] != 0 {
					break
				}
			}
			r.SetData("n", b)
			return nil
		})
		if err != nil {
			c.Fail("relay: %v", err)
			return
		}
		nested := &eden.InvokeOptions{Timeout: 10 * time.Second}
		if hold {
			_, err = c.Kernel().Invoke(c.Caps[0], "lag", nil, nil, nested)
		} else {
			_, err = c.Invoke(c.Caps[0], "lag", nil, nil, nested)
		}
		if err != nil {
			c.Fail("nested lag: %v", err)
			return
		}
		c.Return(nil)
	}
	tm := eden.NewType("pipewrite")
	tm.Op(eden.Operation{
		Name:    "relay",
		Access:  eden.AccessWrite,
		Handler: func(c *eden.Call) { relay(c, false) },
	})
	tm.Op(eden.Operation{
		Name:    "relayhold",
		Access:  eden.AccessWrite,
		Handler: func(c *eden.Call) { relay(c, true) },
	})
	return tm
}

// commuteWork is the post-mutation handler latency of the commuting
// counter — the work (validation, notification, device time) whose
// overlap commutative batching buys.
const commuteWork = 500 * time.Microsecond

// commuteBenchType is the commutative-batching workload: an
// AccessWrite "add" whose executions commute, so the coordinator may
// run a queued batch of them under one exclusive admission.
func commuteBenchType() *eden.TypeManager {
	tm := eden.NewType("commutebench")
	tm.Op(eden.Operation{
		Name:     "add",
		Access:   eden.AccessWrite,
		Commutes: true,
		Handler: func(c *eden.Call) {
			err := c.Self().Update(func(r *eden.Representation) error {
				b, _ := r.Data("n")
				if len(b) != 8 {
					b = make([]byte, 8)
				} else {
					b = append([]byte(nil), b...)
				}
				for i := 7; i >= 0; i-- {
					b[i]++
					if b[i] != 0 {
						break
					}
				}
				r.SetData("n", b)
				return nil
			})
			if err != nil {
				c.Fail("add: %v", err)
				return
			}
			time.Sleep(commuteWork)
			c.Return(nil)
		},
	})
	return tm
}

// measureOnce runs every scenario once, in order, each on a fresh
// system with telemetry enabled.
func measureOnce() ([]BenchResult, error) {
	var results []BenchResult

	local, err := benchLocalInvoke(5000)
	if err != nil {
		return nil, fmt.Errorf("local invoke: %w", err)
	}
	results = append(results, local)

	remote, err := benchRemoteInvoke(2000)
	if err != nil {
		return nil, fmt.Errorf("remote invoke: %w", err)
	}
	results = append(results, remote)

	conc, err := benchRemoteInvokeConcurrent(4000, 8)
	if err != nil {
		return nil, fmt.Errorf("concurrent remote invoke: %w", err)
	}
	results = append(results, conc)

	hot1, err := benchHotRead(800, 1)
	if err != nil {
		return nil, fmt.Errorf("hot read x1: %w", err)
	}
	results = append(results, hot1)

	hot8, err := benchHotRead(3200, 8)
	if err != nil {
		return nil, fmt.Errorf("hot read x8: %w", err)
	}
	results = append(results, hot8)

	ckpt, err := benchCheckpoint(500)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	results = append(results, ckpt)

	repl, err := benchReplicaRead(2400, 8)
	if err != nil {
		return nil, fmt.Errorf("replica read: %w", err)
	}
	results = append(results, repl...)

	nested, err := benchWriteNested(480, 8, true)
	if err != nil {
		return nil, fmt.Errorf("nested write (pipelined): %w", err)
	}
	results = append(results, nested)

	nestedHold, err := benchWriteNested(480, 8, false)
	if err != nil {
		return nil, fmt.Errorf("nested write (held): %w", err)
	}
	results = append(results, nestedHold)

	c1, err := benchCommute(600, 1)
	if err != nil {
		return nil, fmt.Errorf("commute x1: %w", err)
	}
	results = append(results, c1)

	c8, err := benchCommute(2400, 8)
	if err != nil {
		return nil, fmt.Errorf("commute x8: %w", err)
	}
	results = append(results, c8)

	return results, nil
}

// medianResults reduces repeated measurements to one result per
// scenario: the run with the median throughput, kept whole so the
// reported latency quantiles come from the same run as the reported
// ops/sec.
func medianResults(runs [][]BenchResult) []BenchResult {
	byName := make(map[string][]BenchResult)
	var order []string
	for _, run := range runs {
		for _, r := range run {
			if _, seen := byName[r.Name]; !seen {
				order = append(order, r.Name)
			}
			byName[r.Name] = append(byName[r.Name], r)
		}
	}
	out := make([]BenchResult, 0, len(order))
	for _, name := range order {
		rs := byName[name]
		sort.Slice(rs, func(i, j int) bool { return rs[i].OpsPerSec < rs[j].OpsPerSec })
		out = append(out, rs[len(rs)/2])
	}
	return out
}

// runBenchJSON measures the op classes the roadmap tracks — local
// invoke, remote (Mesh) invoke, concurrent remote invoke, hot-object
// concurrent reads, and checkpoint — and writes the report. With
// runs > 1 the whole suite repeats and each scenario reports its
// median run, which is what CI compares: single-shot numbers on a
// 1-vCPU runner are too noisy to gate on. If baseline is non-empty
// the report is compared against it and an error returned on any op
// class whose throughput regressed more than tolerance.
func runBenchJSON(rev, out, baseline string, tolerance float64, runs int) error {
	if runs < 1 {
		runs = 1
	}
	report := BenchReport{Rev: rev}

	all := make([][]BenchResult, 0, runs)
	for i := 0; i < runs; i++ {
		results, err := measureOnce()
		if err != nil {
			return err
		}
		all = append(all, results)
	}
	report.Results = medianResults(all)

	if out == "" {
		out = fmt.Sprintf("BENCH_%s.json", rev)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	for _, r := range report.Results {
		fmt.Printf("  %-16s %9.0f ops/sec  p50 %-10v p95 %-10v p99 %v\n",
			r.Name, r.OpsPerSec,
			time.Duration(r.P50Nanos), time.Duration(r.P95Nanos), time.Duration(r.P99Nanos))
	}

	if err := checkReplicaWin(report.Results); err != nil {
		return err
	}
	if err := checkWriteWins(report.Results); err != nil {
		return err
	}
	if baseline != "" {
		return compareBaseline(report, baseline, tolerance)
	}
	return nil
}

// result distills one op class from its latency histogram plus the
// measured wall-clock throughput.
func result(name string, ops int, elapsed time.Duration, tel *eden.Telemetry, hist string) (BenchResult, error) {
	snap := tel.Snapshot()
	h, ok := snap.Histograms[hist]
	if !ok || h.Count == 0 {
		return BenchResult{}, fmt.Errorf("histogram %q recorded no samples", hist)
	}
	return BenchResult{
		Name:      name,
		Ops:       ops,
		OpsPerSec: float64(ops) / elapsed.Seconds(),
		P50Nanos:  int64(h.Quantile(0.50)),
		P95Nanos:  int64(h.Quantile(0.95)),
		P99Nanos:  int64(h.Quantile(0.99)),
	}, nil
}

func benchLocalInvoke(ops int) (BenchResult, error) {
	sys, err := eden.NewSystem(eden.SystemConfig{Telemetry: true})
	if err != nil {
		return BenchResult{}, err
	}
	defer sys.Close()
	if err := sys.RegisterType(benchType()); err != nil {
		return BenchResult{}, err
	}
	n, err := sys.AddNode("bench")
	if err != nil {
		return BenchResult{}, err
	}
	cap, err := n.CreateObject("benchmark")
	if err != nil {
		return BenchResult{}, err
	}
	payload := []byte("ping")
	opts := &eden.InvokeOptions{Timeout: 10 * time.Second}
	start := time.Now()
	for i := 0; i < ops; i++ {
		if _, err := n.Invoke(cap, "ping", payload, nil, opts); err != nil {
			return BenchResult{}, err
		}
	}
	return result("invoke.local", ops, time.Since(start), n.Telemetry(), "kernel.invoke.local.latency")
}

func benchRemoteInvoke(ops int) (BenchResult, error) {
	sys, err := eden.NewSystem(eden.SystemConfig{Telemetry: true})
	if err != nil {
		return BenchResult{}, err
	}
	defer sys.Close()
	if err := sys.RegisterType(benchType()); err != nil {
		return BenchResult{}, err
	}
	host, err := sys.AddNode("host")
	if err != nil {
		return BenchResult{}, err
	}
	caller, err := sys.AddNode("caller")
	if err != nil {
		return BenchResult{}, err
	}
	cap, err := host.CreateObject("benchmark")
	if err != nil {
		return BenchResult{}, err
	}
	payload := []byte("ping")
	opts := &eden.InvokeOptions{Timeout: 10 * time.Second}
	start := time.Now()
	for i := 0; i < ops; i++ {
		if _, err := caller.Invoke(cap, "ping", payload, nil, opts); err != nil {
			return BenchResult{}, err
		}
	}
	return result("invoke.remote", ops, time.Since(start), caller.Telemetry(), "kernel.invoke.remote.latency")
}

// benchRemoteInvokeConcurrent measures N simultaneous invokers
// driving cross-node invocations between two kernels wired over real
// TCP loopback — the workload the transport's per-peer send queues and
// writev coalescing exist for. Reported ops/sec is aggregate across
// all invokers.
func benchRemoteInvokeConcurrent(ops, invokers int) (BenchResult, error) {
	reg := kernel.NewRegistry()
	if err := reg.Register(benchType()); err != nil {
		return BenchResult{}, err
	}
	trHost, err := transport.NewTCP(1, "127.0.0.1:0")
	if err != nil {
		return BenchResult{}, err
	}
	trCall, err := transport.NewTCP(2, "127.0.0.1:0")
	if err != nil {
		trHost.Close()
		return BenchResult{}, err
	}
	trHost.AddPeer(2, trCall.Addr())
	trCall.AddPeer(1, trHost.Addr())
	tel := telemetry.New()
	trCall.SetTelemetry(tel)
	cfgHost := kernel.DefaultConfig(1, "bench-host")
	cfgCall := kernel.DefaultConfig(2, "bench-caller")
	cfgCall.Telemetry = tel
	kh := kernel.New(cfgHost, trHost, reg, store.NewMemory())
	defer kh.Close()
	kc := kernel.New(cfgCall, trCall, reg, store.NewMemory())
	defer kc.Close()

	cap, err := kh.Create("benchmark", nil)
	if err != nil {
		return BenchResult{}, err
	}
	payload := []byte("ping")
	opts := &kernel.InvokeOptions{Timeout: 10 * time.Second}
	// Warm the location cache and the TCP connections outside the
	// timed region.
	if _, err := kc.Invoke(cap, "ping", payload, nil, opts); err != nil {
		return BenchResult{}, err
	}

	perInvoker := ops / invokers
	errs := make(chan error, invokers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < invokers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perInvoker; i++ {
				if _, err := kc.Invoke(cap, "ping", payload, nil, opts); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return BenchResult{}, fmt.Errorf("invoker: %w", err)
	default:
	}
	return result("invoke.remote.concurrent", perInvoker*invokers, elapsed, tel, "kernel.invoke.remote.latency")
}

// benchHotRead drives one hot object with `callers` concurrent
// invokers of its AccessRead "scan" op, all local to one node. Each
// scan holds the shared representation lock for hotReadWork, so the
// scenario measures the coordinator's reader fan-out: with callers=1
// throughput is bounded by one scan at a time; with callers=8 the
// reader pool overlaps the holds and aggregate ops/sec should scale
// well beyond the single-caller figure.
func benchHotRead(ops, callers int) (BenchResult, error) {
	sys, err := eden.NewSystem(eden.SystemConfig{Telemetry: true})
	if err != nil {
		return BenchResult{}, err
	}
	defer sys.Close()
	if err := sys.RegisterType(hotReadType()); err != nil {
		return BenchResult{}, err
	}
	n, err := sys.AddNode("bench")
	if err != nil {
		return BenchResult{}, err
	}
	cap, err := n.CreateObject("hotread")
	if err != nil {
		return BenchResult{}, err
	}
	obj, err := n.Object(cap)
	if err != nil {
		return BenchResult{}, err
	}
	if err := obj.Update(func(r *segment.Representation) error {
		r.SetData("blob", make([]byte, 4096))
		return nil
	}); err != nil {
		return BenchResult{}, err
	}
	opts := &eden.InvokeOptions{Timeout: 30 * time.Second}
	// Warm the dispatch path outside the timed region.
	if _, err := n.Invoke(cap, "scan", nil, nil, opts); err != nil {
		return BenchResult{}, err
	}

	perCaller := ops / callers
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				if _, err := n.Invoke(cap, "scan", nil, nil, opts); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return BenchResult{}, fmt.Errorf("caller: %w", err)
	default:
	}
	name := fmt.Sprintf("invoke.read.hot%d", callers)
	return result(name, perCaller*callers, elapsed, n.Telemetry(), "kernel.invoke.local.latency")
}

func benchCheckpoint(ops int) (BenchResult, error) {
	sys, err := eden.NewSystem(eden.SystemConfig{Telemetry: true})
	if err != nil {
		return BenchResult{}, err
	}
	defer sys.Close()
	if err := sys.RegisterType(benchType()); err != nil {
		return BenchResult{}, err
	}
	n, err := sys.AddNode("bench")
	if err != nil {
		return BenchResult{}, err
	}
	cap, err := n.CreateObject("benchmark")
	if err != nil {
		return BenchResult{}, err
	}
	obj, err := n.Object(cap)
	if err != nil {
		return BenchResult{}, err
	}
	// Give the representation some substance so checkpoints encode a
	// realistic payload rather than an empty record.
	if err := obj.Update(func(r *segment.Representation) error {
		r.SetData("blob", make([]byte, 4096))
		return nil
	}); err != nil {
		return BenchResult{}, err
	}
	start := time.Now()
	for i := 0; i < ops; i++ {
		if err := obj.Checkpoint(); err != nil {
			return BenchResult{}, err
		}
	}
	return result("checkpoint", ops, time.Since(start), n.Telemetry(), "kernel.checkpoint.latency")
}

// benchReplicaRead measures the replication tentpole: stale-tolerant
// reads of a hot *mutable* object served from checkpoint shadows at
// its checksites, versus the identical read load forced to the
// write-contended home. Three kernels over real TCP loopback: node 1
// is the home and runs a duty-cycled writer (an exclusive ~2ms
// "churn" per cycle with a short gap, checkpointing every fourth
// write so the shadows track the object); nodes 2 and 3 are
// checkpoint-serving checksites hosting `readers` concurrent readers
// between them. The home-only comparator (invoke.read.home8) runs
// with AllowReplica off, so reads queue behind the writer's holds;
// the replica scenario (invoke.read.replica) serves from local
// shadows and never touches the home. checkReplicaWin gates the
// ratio between the two.
func benchReplicaRead(ops, readers int) ([]BenchResult, error) {
	reg := kernel.NewRegistry()
	if err := reg.Register(replBenchType()); err != nil {
		return nil, err
	}
	trs := make([]*transport.TCP, 3)
	for i := range trs {
		tr, err := transport.NewTCP(uint32(i+1), "127.0.0.1:0")
		if err != nil {
			for _, prev := range trs[:i] {
				prev.Close()
			}
			return nil, err
		}
		trs[i] = tr
	}
	for i, tr := range trs {
		for j, peer := range trs {
			if i != j {
				tr.AddPeer(uint32(j+1), peer.Addr())
			}
		}
	}
	tel := telemetry.New()
	trs[1].SetTelemetry(tel)

	cfgHome := kernel.DefaultConfig(1, "bench-home")
	kh := kernel.New(cfgHome, trs[0], reg, store.NewMemory())
	defer kh.Close()
	kcs := make([]*kernel.Kernel, 2)
	for i := range kcs {
		cfg := kernel.DefaultConfig(uint32(i+2), fmt.Sprintf("bench-checksite-%d", i+2))
		cfg.ReplicaServe = true
		if i == 0 {
			cfg.Telemetry = tel
		}
		kcs[i] = kernel.New(cfg, trs[i+1], reg, store.NewMemory())
		defer kcs[i].Close()
	}

	cap, err := kh.Create("replbench", &kernel.CreateOptions{
		Checksite: &kernel.ChecksiteSpec{Level: kernel.RelReplicated, Sites: []uint32{2, 3}},
	})
	if err != nil {
		return nil, err
	}
	obj, err := kh.Object(cap.ID())
	if err != nil {
		return nil, err
	}
	if err := obj.Update(func(r *segment.Representation) error {
		r.SetData("blob", make([]byte, 4096))
		return nil
	}); err != nil {
		return nil, err
	}
	// Seed the checksites so shadows exist before the first read.
	if err := obj.Checkpoint(); err != nil {
		return nil, err
	}

	// Duty-cycled writer: hold the object exclusively for the churn
	// period, leave a short admission gap, checkpoint every fourth
	// write. Home reads only complete inside the gaps; replica reads
	// don't care.
	opts := &kernel.InvokeOptions{Timeout: 30 * time.Second}
	stop := make(chan struct{})
	writerErr := make(chan error, 1)
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		arg := []byte{0}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%4 == 3 {
				arg[0] = 1
			} else {
				arg[0] = 0
			}
			if _, err := kh.Invoke(cap, "churn", arg, nil, opts); err != nil {
				select {
				case writerErr <- err:
				default:
				}
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	stopWriter := func() error {
		close(stop)
		writerWG.Wait()
		select {
		case err := <-writerErr:
			return fmt.Errorf("writer: %w", err)
		default:
			return nil
		}
	}

	// measure drives the read load: `readers` goroutines split across
	// the two checksite kernels, each looping "scan" with the given
	// replica tolerance.
	measure := func(allowReplica bool) (time.Duration, error) {
		iopts := &kernel.InvokeOptions{Timeout: 30 * time.Second, AllowReplica: allowReplica}
		// Warm each checksite's path (shadow materialization or
		// location hint + TCP connection) outside the timed region.
		for _, kc := range kcs {
			if _, err := kc.Invoke(cap, "scan", nil, nil, iopts); err != nil {
				return 0, err
			}
		}
		perReader := ops / readers
		errs := make(chan error, readers)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < readers; w++ {
			wg.Add(1)
			go func(kc *kernel.Kernel) {
				defer wg.Done()
				for i := 0; i < perReader; i++ {
					if _, err := kc.Invoke(cap, "scan", nil, nil, iopts); err != nil {
						errs <- err
						return
					}
				}
			}(kcs[w%len(kcs)])
		}
		wg.Wait()
		elapsed := time.Since(start)
		select {
		case err := <-errs:
			return 0, fmt.Errorf("reader: %w", err)
		default:
		}
		return elapsed, nil
	}

	perReader := ops / readers
	measured := perReader * readers

	homeElapsed, err := measure(false)
	if err != nil {
		stopWriter()
		return nil, fmt.Errorf("home-only read: %w", err)
	}
	replElapsed, err := measure(true)
	if err != nil {
		stopWriter()
		return nil, fmt.Errorf("replica read: %w", err)
	}
	if err := stopWriter(); err != nil {
		return nil, err
	}

	home, err := result(fmt.Sprintf("invoke.read.home%d", readers), measured, homeElapsed, tel, "kernel.invoke.remote.latency")
	if err != nil {
		return nil, err
	}
	repl, err := result("invoke.read.replica", measured, replElapsed, tel, "kernel.replica.read.latency")
	if err != nil {
		return nil, err
	}
	return []BenchResult{home, repl}, nil
}

// benchWriteNested measures the writer-pipelining tentpole: `writers`
// concurrent invokers drive one exclusive object whose write performs
// a nested invocation of a lag object on another node, over real TCP
// loopback. With pipelined=true the write releases its exclusivity
// across the nested wait (Call.Invoke), so the lag latencies of the
// competing writers overlap; with pipelined=false the comparator holds
// exclusivity end-to-end (invoke.write.nested.hold) and the writers
// serialize through every remote round trip. checkWriteWins gates the
// ratio between the two.
func benchWriteNested(ops, writers int, pipelined bool) (BenchResult, error) {
	reg := kernel.NewRegistry()
	if err := reg.Register(lagType()); err != nil {
		return BenchResult{}, err
	}
	if err := reg.Register(pipeWriteType()); err != nil {
		return BenchResult{}, err
	}
	trHost, err := transport.NewTCP(1, "127.0.0.1:0")
	if err != nil {
		return BenchResult{}, err
	}
	trCall, err := transport.NewTCP(2, "127.0.0.1:0")
	if err != nil {
		trHost.Close()
		return BenchResult{}, err
	}
	trHost.AddPeer(2, trCall.Addr())
	trCall.AddPeer(1, trHost.Addr())
	tel := telemetry.New()
	cfgHost := kernel.DefaultConfig(1, "bench-lag-host")
	cfgCall := kernel.DefaultConfig(2, "bench-writer")
	cfgCall.Telemetry = tel
	kh := kernel.New(cfgHost, trHost, reg, store.NewMemory())
	defer kh.Close()
	kc := kernel.New(cfgCall, trCall, reg, store.NewMemory())
	defer kc.Close()

	lag, err := kh.Create("lag", nil)
	if err != nil {
		return BenchResult{}, err
	}
	front, err := kc.Create("pipewrite", nil)
	if err != nil {
		return BenchResult{}, err
	}
	op := "relay"
	name := "invoke.write.nested"
	if !pipelined {
		op = "relayhold"
		name = "invoke.write.nested.hold"
	}
	opts := &kernel.InvokeOptions{Timeout: 30 * time.Second}
	caps := eden.CapabilityList{lag}
	// Warm the lag object's location and the TCP connections outside
	// the timed region.
	if _, err := kc.Invoke(front, op, nil, caps, opts); err != nil {
		return BenchResult{}, err
	}

	perWriter := ops / writers
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := kc.Invoke(front, op, nil, caps, opts); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return BenchResult{}, fmt.Errorf("writer: %w", err)
	default:
	}
	return result(name, perWriter*writers, elapsed, tel, "kernel.invoke.local.latency")
}

// benchCommute drives one commutative counter with `callers`
// concurrent invokers of its Commutes "add" op, each keeping a small
// window of asynchronous submissions in flight so the object's write
// queue stays deep enough for the coordinator to batch. With
// callers=1 the adds serialize (one exclusive admission each); with
// callers=8 a queued run shares one admission and the commuteWork
// holds overlap. checkWriteWins gates the multiplier.
func benchCommute(ops, callers int) (BenchResult, error) {
	sys, err := eden.NewSystem(eden.SystemConfig{Telemetry: true})
	if err != nil {
		return BenchResult{}, err
	}
	defer sys.Close()
	if err := sys.RegisterType(commuteBenchType()); err != nil {
		return BenchResult{}, err
	}
	n, err := sys.AddNode("bench")
	if err != nil {
		return BenchResult{}, err
	}
	cap, err := n.CreateObject("commutebench")
	if err != nil {
		return BenchResult{}, err
	}
	opts := &eden.InvokeOptions{Timeout: 30 * time.Second}
	// Warm the dispatch path outside the timed region.
	if _, err := n.Invoke(cap, "add", nil, nil, opts); err != nil {
		return BenchResult{}, err
	}

	const window = 2
	perCaller := ops / callers
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inflight := make([]*eden.Pending, 0, window)
			for i := 0; i < perCaller; i++ {
				inflight = append(inflight, n.InvokeAsync(cap, "add", nil, nil, opts))
				if len(inflight) == window {
					if _, err := inflight[0].Wait(); err != nil {
						errs <- err
						return
					}
					inflight = inflight[1:]
				}
			}
			for _, p := range inflight {
				if _, err := p.Wait(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return BenchResult{}, fmt.Errorf("caller: %w", err)
	default:
	}
	name := fmt.Sprintf("invoke.write.commute%d", callers)
	return result(name, perCaller*callers, elapsed, n.Telemetry(), "kernel.invoke.local.latency")
}

// replicaWinFloor is the minimum ratio of replica-served read
// throughput over home-only read throughput the bench gate accepts:
// the replication tentpole must buy at least a 3x read win on a hot
// mutable object or CI fails.
const replicaWinFloor = 3.0

// checkReplicaWin enforces the replica read multiplier itself — not
// just each scenario's absolute throughput — so the replica path
// cannot quietly degrade into "barely better than asking the home".
func checkReplicaWin(results []BenchResult) error {
	byName := make(map[string]BenchResult, len(results))
	for _, r := range results {
		byName[r.Name] = r
	}
	repl, okR := byName["invoke.read.replica"]
	home, okH := byName["invoke.read.home8"]
	if !okR || !okH {
		return fmt.Errorf("replica win: missing scenario (replica=%v home8=%v)", okR, okH)
	}
	if home.OpsPerSec <= 0 {
		return fmt.Errorf("replica win: home8 measured %.0f ops/sec", home.OpsPerSec)
	}
	ratio := repl.OpsPerSec / home.OpsPerSec
	if ratio < replicaWinFloor {
		return fmt.Errorf("replica win: %.2fx (replica %.0f vs home %.0f ops/sec) is below the %.1fx floor",
			ratio, repl.OpsPerSec, home.OpsPerSec, replicaWinFloor)
	}
	fmt.Printf("replica read win: %.2fx over home-only reads (floor %.1fx)\n", ratio, replicaWinFloor)
	return nil
}

// nestedWinFloor is the minimum ratio of pipelined nested-write
// throughput over hold-across-the-wait throughput: releasing
// exclusivity across the nested invoke must buy at least 2x or CI
// fails.
const nestedWinFloor = 2.0

// commuteWinFloor is the minimum ratio of 8-caller commutative-add
// throughput over the single-caller figure: batching queued commuting
// writers into one exclusive admission must buy at least 3x.
const commuteWinFloor = 3.0

// checkWriteWins enforces the write-path multipliers themselves, like
// checkReplicaWin does for replica reads: the pipelining and batching
// machinery cannot quietly degrade into "barely better than holding
// the object".
func checkWriteWins(results []BenchResult) error {
	byName := make(map[string]BenchResult, len(results))
	for _, r := range results {
		byName[r.Name] = r
	}
	ratio := func(num, den string) (float64, error) {
		n, okN := byName[num]
		d, okD := byName[den]
		if !okN || !okD {
			return 0, fmt.Errorf("write win: missing scenario (%s=%v %s=%v)", num, okN, den, okD)
		}
		if d.OpsPerSec <= 0 {
			return 0, fmt.Errorf("write win: %s measured %.0f ops/sec", den, d.OpsPerSec)
		}
		return n.OpsPerSec / d.OpsPerSec, nil
	}
	nested, err := ratio("invoke.write.nested", "invoke.write.nested.hold")
	if err != nil {
		return err
	}
	if nested < nestedWinFloor {
		return fmt.Errorf("nested write win: %.2fx (pipelined %.0f vs held %.0f ops/sec) is below the %.1fx floor",
			nested, byName["invoke.write.nested"].OpsPerSec, byName["invoke.write.nested.hold"].OpsPerSec, nestedWinFloor)
	}
	fmt.Printf("nested write win: %.2fx over held exclusivity (floor %.1fx)\n", nested, nestedWinFloor)
	commute, err := ratio("invoke.write.commute8", "invoke.write.commute1")
	if err != nil {
		return err
	}
	if commute < commuteWinFloor {
		return fmt.Errorf("commute win: %.2fx (8 callers %.0f vs 1 caller %.0f ops/sec) is below the %.1fx floor",
			commute, byName["invoke.write.commute8"].OpsPerSec, byName["invoke.write.commute1"].OpsPerSec, commuteWinFloor)
	}
	fmt.Printf("commute write win: %.2fx over a single caller (floor %.1fx)\n", commute, commuteWinFloor)
	return nil
}

// compareBaseline fails on any op class whose throughput fell more
// than tolerance below the baseline's. New op classes (absent from the
// baseline) pass; op classes removed relative to the baseline fail, so
// a benchmark cannot silently disappear.
func compareBaseline(report BenchReport, path string, tolerance float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base BenchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	current := make(map[string]BenchResult, len(report.Results))
	for _, r := range report.Results {
		current[r.Name] = r
	}
	var failures []string
	for _, b := range base.Results {
		r, ok := current[b.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline but not measured", b.Name))
			continue
		}
		floor := b.OpsPerSec * (1 - tolerance)
		if r.OpsPerSec < floor {
			failures = append(failures,
				fmt.Sprintf("%s: %.0f ops/sec is %.0f%% below baseline %.0f (floor %.0f)",
					b.Name, r.OpsPerSec, 100*(1-r.OpsPerSec/b.OpsPerSec), b.OpsPerSec, floor))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "regression: "+f)
		}
		return fmt.Errorf("%d benchmark regression(s) vs %s", len(failures), path)
	}
	fmt.Printf("no regressions vs %s (tolerance %.0f%%)\n", path, tolerance*100)
	return nil
}
