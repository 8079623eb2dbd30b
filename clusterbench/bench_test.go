package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"time"

	"eden/internal/telemetry"
)

func TestSameSeedSameInputs(t *testing.T) {
	draws := func(seed int64) (objs []int, sched [callers][]int, payloads [][]byte) {
		w := newCounterLoad(seed, true)
		for c := 0; c < callers; c++ {
			for i := 0; i < 1000; i++ {
				objs = append(objs, w.nextObject(c))
			}
		}
		e := newEFSLoad(seed, 5)
		for f := 0; f < efsFiles; f++ {
			payloads = append(payloads, payload(seed, e.plan.owner[f], f, efsPreload+1))
		}
		return objs, e.sched, payloads
	}
	o1, s1, p1 := draws(42)
	o2, s2, p2 := draws(42)
	if !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(p1, p2) {
		t.Fatal("the same seed gave different inputs")
	}
	o3, s3, p3 := draws(43)
	if reflect.DeepEqual(o1, o3) || reflect.DeepEqual(s1, s3) || reflect.DeepEqual(p1, p3) {
		t.Fatal("different seeds gave the same inputs")
	}
	if !reflect.DeepEqual(newPlan(7, 64), newPlan(7, 64)) || reflect.DeepEqual(newPlan(7, 64), newPlan(8, 64)) {
		t.Fatal("object placement is not a function of the seed")
	}
	w1, w2 := newCounterLoad(9, false), newCounterLoad(10, false)
	same := true
	for i := 0; i < counterObjects; i++ {
		same = same && w1.preset(i) == w2.preset(i)
	}
	if same {
		t.Fatal("invoke-read presets do not depend on the seed")
	}
}

func TestPayloadNamesItsWriter(t *testing.T) {
	b := payload(3, 1, 17, 300)
	if len(b) != efsContent {
		t.Fatalf("payload is %d bytes, want %d", len(b), efsContent)
	}
	if !bytes.HasPrefix(b, []byte("writer=1 file=17 seq=300|")) {
		t.Fatalf("payload header %q", b[:32])
	}
	if bytes.Equal(b, payload(3, 1, 17, 301)) || bytes.Equal(b, payload(4, 1, 17, 300)) {
		t.Fatal("payloads of different versions or seeds are equal")
	}
}

func TestCallerSetsDisjoint(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, n := range []int{counterObjects, efsFiles} {
			p := newPlan(seed, n)
			seen := make(map[int]int)
			for c, set := range p.sets {
				if len(set) != n/callers {
					t.Fatalf("seed %d: caller %d has %d of %d objects", seed, c, len(set), n)
				}
				for _, obj := range set {
					if prev, dup := seen[obj]; dup {
						t.Fatalf("seed %d: object %d is in the sets of callers %d and %d", seed, obj, prev, c)
					}
					seen[obj] = c
					if p.owner[obj] != c {
						t.Fatalf("seed %d: object %d owner %d, in set of %d", seed, obj, p.owner[obj], c)
					}
				}
			}
			if len(seen) != n {
				t.Fatalf("seed %d: sets cover %d of %d objects", seed, len(seen), n)
			}
		}
		// Each caller's draws and schedule stay inside its own set.
		w := newCounterLoad(seed, false)
		e := newEFSLoad(seed, 3)
		for c := 0; c < callers; c++ {
			for i := 0; i < 200; i++ {
				if obj := w.nextObject(c); w.plan.owner[obj] != c {
					t.Fatalf("seed %d: caller %d drew counter %d of caller %d", seed, c, obj, w.plan.owner[obj])
				}
			}
			if len(e.sched[c]) != 3*efsFiles/callers {
				t.Fatalf("seed %d: caller %d schedule has %d commits", seed, c, len(e.sched[c]))
			}
			for _, f := range e.sched[c] {
				if e.plan.owner[f] != c {
					t.Fatalf("seed %d: caller %d scheduled file %d of caller %d", seed, c, f, e.plan.owner[f])
				}
			}
		}
	}
}

var reName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var reUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestMetricNames checks every metric name and unit, and that the
// output names are exactly those BENCHMARK.json declares.
func TestMetricNames(t *testing.T) {
	empty := &phaseResult{}
	sets := map[string]metrics{
		"end_to_end": endToEnd(empty),
		"per_layer":  perLayer(empty, empty),
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl map[string]json.RawMessage
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for key, ms := range sets {
		var want []struct{ Name, Unit string }
		if err := json.Unmarshal(decl[key], &want); err != nil {
			t.Fatal(err)
		}
		if len(want) != len(ms) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", key, len(want), len(ms))
		}
		for i, m := range ms {
			if !reName.MatchString(m.name) {
				t.Errorf("metric name %q", m.name)
			}
			if !reUnit.MatchString(m.unit) {
				t.Errorf("metric %s: unit %q", m.name, m.unit)
			}
			if seen[m.name] {
				t.Errorf("metric %s printed twice", m.name)
			}
			seen[m.name] = true
			if i < len(want) && (want[i].Name != m.name || want[i].Unit != m.unit) {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)", key, i, want[i].Name, want[i].Unit, m.name, m.unit)
			}
		}
	}
}

// TestHistogramDeltaArithmetic checks mean and quantile over the
// bucket delta of two /metrics snapshots: samples before the window
// must not count.
func TestHistogramDeltaArithmetic(t *testing.T) {
	reg := telemetry.New()
	h := reg.Histogram("kernel.dispatch.latency")
	for i := 0; i < 1000; i++ {
		h.Observe(time.Microsecond)
	}
	before := roundTrip(t, reg.Snapshot())
	for i := 0; i < 99; i++ {
		h.Observe(10 * time.Microsecond)
	}
	h.Observe(time.Millisecond)
	d := delta{before, roundTrip(t, reg.Snapshot())}.hist("kernel.dispatch.latency")
	if d.Count != 100 {
		t.Fatalf("delta count %d, want 100", d.Count)
	}
	if got, want := meanUS(d), (99*10.0+1000)/100; math.Abs(got-want) > 1e-9 {
		t.Fatalf("delta mean %v us, want %v", got, want)
	}
	// 10 us lies in the log2 bucket [8192, 16383] ns; the 99th sample
	// is its last, so the estimate is the bucket's top.
	if got := p99US(d); got != 16.383 {
		t.Fatalf("delta p99 %v us, want 16.383", got)
	}
	// An instrument missing on both sides is an empty delta, not an error.
	if e := (delta{before, before}).hist("store.put.latency"); meanUS(e) != 0 || p99US(e) != 0 {
		t.Fatal("empty delta is not zero")
	}
	if got := (delta{before, before}).counter("store.puts"); got != 0 {
		t.Fatalf("missing counter delta %v", got)
	}
}

// roundTrip passes a snapshot through JSON, as /metrics serves it.
func roundTrip(t *testing.T, s telemetry.Snapshot) telemetry.Snapshot {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var out telemetry.Snapshot
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSelfTimeAndUnaccounted(t *testing.T) {
	spans := []span{
		0: {start: 0, end: 100, parent: noSpan, name: spanOp},
		1: {start: 10, end: 90, parent: 0, name: spanInvoke},
		2: {start: 20, end: 25, parent: 1, name: spanSend},
		3: {start: 20, end: 80, parent: 1, name: spanRTT},
		// A second operation whose children overlap and overhang it.
		4: {start: 200, end: 300, parent: noSpan, name: spanOp},
		5: {start: 190, end: 240, parent: 4, name: spanEFSRead},
		6: {start: 230, end: 270, parent: 4, name: spanEFSCommit},
	}
	self := selfTimes(spans)
	want := []int64{20, 20, 5, 60, 30, 50, 40}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	if got := unaccountedShare(spans, self); math.Abs(got-50.0/200) > 1e-12 {
		t.Fatalf("unaccounted share %v, want 0.25", got)
	}
	sum := summarize(spans)
	if s := sum[spanOp]; s.count != 2 || s.meanUS() != 0.1 {
		t.Fatalf("op summary %+v", s)
	}
}

func TestFlattenRemapsParents(t *testing.T) {
	tr := newTracer()
	a := tr.begin(1, spanOp)
	b := tr.begin(1, spanInvoke)
	parent := tr.callers[1].cur.Load()
	tr.net = append(tr.net, span{start: 1, end: 2, parent: parent, name: spanSend})
	tr.end(1, b)
	tr.end(1, a)
	c := tr.begin(0, spanOp)
	tr.end(0, c)
	spans := tr.flatten()
	// Caller 0's span comes first, then caller 1's two, then the frame.
	if len(spans) != 4 || spans[1].parent != noSpan || spans[2].parent != 1 || spans[3].parent != 2 {
		t.Fatalf("flattened spans %+v", spans)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]int64{0.5: 5, 0.99: 10, 0.1: 1, 0.11: 2} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(%v) = %d, want %d", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 || interpQuantile(nil, 0.5) != 0 {
		t.Error("empty quantile")
	}
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{5, 1, 4, 2, 3}, 0.25, 2},
		{[]float64{4, 1, 3, 2}, 0.75, 3.25},
		{[]float64{7}, 0.25, 7},
		{[]float64{2, 9}, 1, 9},
	} {
		if got := interpQuantile(c.xs, c.q); got != c.want {
			t.Errorf("interpQuantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
}

func TestOverRepeats(t *testing.T) {
	rep := func(setup, ops, p99 float64) metrics {
		return metrics{{"setup_s", "s", setup}, {"ops_per_s", "1/s", ops}, {"p99_us", "us", p99}}
	}
	got := overAll([]metrics{rep(3, 100, 9), rep(1, 300, 4), rep(2, 200, 5), rep(4, 400, 8), rep(5, 500, 6)})
	want := metrics{{"setup_s", "s", 3}, {"ops_per_s", "1/s", 400}, {"p99_us", "us", 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("over repeats %v, want %v", got, want)
	}
	for _, m := range endToEnd(&phaseResult{}) {
		if _, ok := overRepeats[m.name]; !ok {
			t.Errorf("end-to-end metric %s has no quantile over repeats", m.name)
		}
	}
}

func TestFreePortsBelowEphemeralRange(t *testing.T) {
	addrs, err := freePorts(2)
	if err != nil {
		t.Fatal(err)
	}
	low := 32768
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		fmt.Sscan(string(b), &low)
	}
	seen := map[string]bool{}
	for _, a := range addrs {
		_, port, err := net.SplitHostPort(a)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := strconv.Atoi(port)
		if p < 1024 || p >= low || seen[port] {
			t.Fatalf("ports %v: want distinct ports from 1024 below %d", addrs, low)
		}
		seen[port] = true
	}
}
