package eden

import (
	"testing"
	"time"
)

// echoType is a minimal type for exercising the invocation path.
func echoType() *TypeManager {
	tm := NewType("echo")
	tm.Op(Operation{
		Name:    "ping",
		Access:  AccessRead,
		Handler: func(c *Call) { c.Return(c.Data) },
	})
	return tm
}

// TestTracePropagation checks that one remote invocation produces a
// correlated pair of spans: an "invoke" span on the calling node and a
// "serve" span on the hosting node, sharing the same nonzero trace ID
// carried across the wire in the envelope's Trace field.
func TestTracePropagation(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.RegisterType(echoType()); err != nil {
		t.Fatal(err)
	}
	host, err := sys.AddNode("host")
	if err != nil {
		t.Fatal(err)
	}
	caller, err := sys.AddNode("caller")
	if err != nil {
		t.Fatal(err)
	}
	cap, err := host.CreateObject("echo")
	if err != nil {
		t.Fatal(err)
	}
	opts := &InvokeOptions{Timeout: 5 * time.Second}
	if _, err := caller.Invoke(cap, "ping", []byte("x"), nil, opts); err != nil {
		t.Fatal(err)
	}

	var invoke *SpanRecord
	for _, sp := range caller.Telemetry().Spans() {
		if sp.Name == "invoke" {
			sp := sp
			invoke = &sp
		}
	}
	if invoke == nil {
		t.Fatal("caller recorded no invoke span")
	}
	if invoke.Trace == 0 {
		t.Fatal("invoke span has zero trace ID")
	}
	if invoke.Node != caller.Num() {
		t.Errorf("invoke span node = %d, want %d", invoke.Node, caller.Num())
	}
	if invoke.Status != "ok" {
		t.Errorf("invoke span status = %q, want ok", invoke.Status)
	}
	if invoke.Duration <= 0 {
		t.Errorf("invoke span duration = %v, want > 0", invoke.Duration)
	}

	serves := host.Telemetry().SpansFor(invoke.Trace)
	var serve *SpanRecord
	for _, sp := range serves {
		if sp.Name == "serve" {
			sp := sp
			serve = &sp
		}
	}
	if serve == nil {
		t.Fatalf("host recorded no serve span for trace %#x (host spans: %v)",
			invoke.Trace, host.Telemetry().Spans())
	}
	if serve.Node != host.Num() {
		t.Errorf("serve span node = %d, want %d", serve.Node, host.Num())
	}

	// The two nodes mint IDs independently; cross-node correlation only
	// works because the ID travels in the envelope. A second invocation
	// must get a fresh trace.
	if _, err := caller.Invoke(cap, "ping", []byte("y"), nil, opts); err != nil {
		t.Fatal(err)
	}
	var traces []uint64
	for _, sp := range caller.Telemetry().Spans() {
		if sp.Name == "invoke" {
			traces = append(traces, sp.Trace)
		}
	}
	if len(traces) != 2 || traces[0] == traces[1] {
		t.Errorf("want two invoke spans with distinct traces, got %v", traces)
	}
}

// TestTelemetryCountsLocalAndRemote checks the kernel's invocation
// counters split local from remote correctly and that latency
// histograms fill on both paths.
func TestTelemetryCountsLocalAndRemote(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.RegisterType(echoType()); err != nil {
		t.Fatal(err)
	}
	host, err := sys.AddNode("host")
	if err != nil {
		t.Fatal(err)
	}
	caller, err := sys.AddNode("caller")
	if err != nil {
		t.Fatal(err)
	}
	cap, err := host.CreateObject("echo")
	if err != nil {
		t.Fatal(err)
	}
	opts := &InvokeOptions{Timeout: 5 * time.Second}
	const localN, remoteN = 3, 5
	for i := 0; i < localN; i++ {
		if _, err := host.Invoke(cap, "ping", nil, nil, opts); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < remoteN; i++ {
		if _, err := caller.Invoke(cap, "ping", nil, nil, opts); err != nil {
			t.Fatal(err)
		}
	}

	hostSnap := host.Telemetry().Snapshot()
	callerSnap := caller.Telemetry().Snapshot()
	if got := hostSnap.Counters["kernel.invoke.local"]; got != localN {
		t.Errorf("host local invokes = %d, want %d", got, localN)
	}
	if got := callerSnap.Counters["kernel.invoke.remote"]; got != remoteN {
		t.Errorf("caller remote invokes = %d, want %d", got, remoteN)
	}
	if got := hostSnap.Counters["kernel.invoke.served"]; got != remoteN {
		t.Errorf("host served invokes = %d, want %d", got, remoteN)
	}
	if h := hostSnap.Histograms["kernel.invoke.local.latency"]; h.Count != localN {
		t.Errorf("host local latency samples = %d, want %d", h.Count, localN)
	}
	if h := callerSnap.Histograms["kernel.invoke.remote.latency"]; h.Count != remoteN {
		t.Errorf("caller remote latency samples = %d, want %d", h.Count, remoteN)
	}
	// Remote invocations cost at least one network round trip; the
	// distribution's mean must be positive and its quantiles ordered.
	h := callerSnap.Histograms["kernel.invoke.remote.latency"]
	if h.Mean() <= 0 {
		t.Errorf("remote latency mean = %v, want > 0", h.Mean())
	}
	if p50, p99 := h.Quantile(0.50), h.Quantile(0.99); p50 > p99 {
		t.Errorf("quantiles out of order: p50 %v > p99 %v", p50, p99)
	}
}
