// Package experiments implements the evaluation suite E1–E10 of
// DESIGN.md: for every mechanism the paper specifies, a repeatable
// experiment that characterizes it and prints a table. The paper
// itself is a design paper with no quantitative evaluation, so this
// suite is the synthetic evaluation a reproduction needs: each
// experiment states the architecture's qualitative prediction and
// measures whether the implementation exhibits that shape.
//
// cmd/edenbench runs these tables; the repository's bench_test.go
// exposes the same code paths as testing.B benchmarks.
package experiments

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"eden"
)

// Table is one experiment's result: an id (E1..E10), a headline, the
// architectural prediction being tested, and formatted rows.
type Table struct {
	// ID is the experiment identifier from DESIGN.md.
	ID string
	// Title is the experiment's headline.
	Title string
	// Prediction states what the paper's architecture implies
	// qualitatively.
	Prediction string
	// Columns and Rows carry the measurements.
	Columns []string
	Rows    [][]string
	// Notes carries caveats (substitutions, variance).
	Notes string
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "prediction: %s\n", t.Prediction)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "  note: %s\n", t.Notes)
	}
}

// Experiment couples an id to its runner.
type Experiment struct {
	ID   string
	Name string
	Run  func() (*Table, error)
}

// All returns the experiment suite in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "local vs remote invocation latency", RunE1},
		{"E2", "invocation-class throughput", RunE2},
		{"E3", "checkpoint and reincarnation", RunE3},
		{"E4", "frozen-object replication", RunE4},
		{"E5", "object mobility", RunE5},
		{"E6", "Ethernet load sweep", RunE6},
		{"E7", "location lookup and hint cache", RunE7},
		{"E8", "failure recovery vs checksite policy", RunE8},
		{"E9", "EFS concurrency control and replication", RunE9},
		{"E10", "type hierarchy dispatch depth", RunE10},
		{"E11", "single-level memory under pressure", RunE11},
	}
}

// ByID returns the experiment with the given id (case-insensitive).
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---- shared helpers ----

// netLatency is the per-hop latency injected into the in-process mesh
// so "remote" is measurably remote, approximating a 1981 Ethernet
// round trip (~1 ms including protocol software).
const netLatency = 500 * time.Microsecond

func u64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// expTimeout mirrors the DefaultTimeout every experiment system is
// configured with; invocations pass it explicitly so the wait budget
// is visible at each call site.
const expTimeout = 10 * time.Second

// expOpts returns invocation options carrying the experiments'
// standard budget.
func expOpts() *eden.InvokeOptions { return &eden.InvokeOptions{Timeout: expTimeout} }

// newSystem builds an n-node system with injected network latency and
// the echo benchmark type registered.
func newSystem(n int) (*eden.System, []*eden.Node, error) {
	sys, err := eden.NewSystem(eden.SystemConfig{
		DefaultTimeout: expTimeout,
		LocateTimeout:  2 * time.Second,
	})
	if err != nil {
		return nil, nil, err
	}
	sys.SetLatency(func(from, to uint32) time.Duration { return netLatency })
	nodes := make([]*eden.Node, n)
	for i := range nodes {
		nodes[i], err = sys.AddNode(fmt.Sprintf("node-%d", i+1))
		if err != nil {
			sys.Close()
			return nil, nil, err
		}
	}
	if err := sys.RegisterType(echoType()); err != nil {
		sys.Close()
		return nil, nil, err
	}
	return sys, nodes, nil
}

// echoType is the benchmark workhorse: echo (read-only), store
// (mutating), and pause (configurable service time).
func echoType() *eden.TypeManager {
	tm := eden.NewType("bench.echo")
	tm.Init = func(o *eden.Object) error {
		return o.Update(func(r *eden.Representation) error {
			r.SetData("state", nil)
			return nil
		})
	}
	tm.Op(eden.Operation{
		Name:    "echo",
		Access:  eden.AccessRead,
		Handler: func(c *eden.Call) { c.Return(c.Data) },
	})
	tm.Op(eden.Operation{
		Name: "store",
		Handler: func(c *eden.Call) {
			_ = c.Self().Update(func(r *eden.Representation) error {
				r.SetData("state", c.Data)
				return nil
			})
		},
	})
	tm.Op(eden.Operation{
		Name: "store-small",
		Handler: func(c *eden.Call) {
			_ = c.Self().Update(func(r *eden.Representation) error {
				r.SetData("small", c.Data)
				return nil
			})
		},
	})
	tm.Op(eden.Operation{
		Name: "pause",
		Handler: func(c *eden.Call) {
			if len(c.Data) == 8 {
				time.Sleep(time.Duration(binary.BigEndian.Uint64(c.Data)))
			}
		},
	})
	return tm
}

// measure runs fn iters times and returns the median, p10 and p90
// per-iteration latencies.
func measure(iters int, fn func() error) (median, p10, p90 time.Duration, err error) {
	samples := make([]time.Duration, 0, iters)
	for i := 0; i < iters; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, 0, 0, err
		}
		samples = append(samples, time.Since(start))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	pick := func(q float64) time.Duration {
		i := int(q * float64(len(samples)-1))
		return samples[i]
	}
	return pick(0.5), pick(0.1), pick(0.9), nil
}

func us(d time.Duration) string {
	return fmt.Sprintf("%.0f", float64(d.Nanoseconds())/1e3)
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Nanoseconds())/1e6)
}
