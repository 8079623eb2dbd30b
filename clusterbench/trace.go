package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eden/internal/edenid"
	"eden/internal/msg"
	"eden/internal/transport"
)

// Span names. Each is a layer boundary the benchmark's own code crosses:
// the operation a caller issues, the call into the kernel or the EFS
// client, and the frames the client kernel hands to its transport.
const (
	spanOp        uint8 = iota // one benchmark operation (a counter call or an EFS transaction)
	spanInvoke                 // kernel.Invoke on the bench kernel
	spanEFSRead                // efs Tx.WriteLatest: the transactional read
	spanEFSCommit              // efs Tx.Commit: prepare and commit
	spanSend                   // transport Send of an invocation request
	spanRTT                    // request Send to the arrival of its reply frame
)

var spanNames = [...]string{"op", "kernel.invoke", "efs.read", "efs.commit", "transport.send", "transport.rtt"}

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch; parent is an index into the same span list, -1 for a
// root.
type span struct {
	start, end int64
	parent     int64
	name       uint8
}

// noSpan marks "no enclosing span".
const noSpan = -1

// callerSpans is one caller's span list. Only that caller appends to
// it; cur is read by the transport wrapper on other goroutines.
type callerSpans struct {
	spans []span
	cur   atomic.Int64 // global id of the innermost open span, noSpan if none
}

// pendingRTT is an invocation request waiting for its reply frame.
type pendingRTT struct {
	start  int64
	parent int64
}

// tracer keeps the benchmark's spans and transport counts in memory.
// Caller spans are ids caller<<40|index; transport spans live in their
// own list and name a caller span as parent.
type tracer struct {
	epoch   time.Time
	callers [callers]callerSpans
	owner   atomic.Pointer[map[edenid.ID]int] // object -> the one caller that invokes it

	mu      sync.Mutex
	net     []span
	pending map[uint64]pendingRTT

	framesOut, framesIn atomic.Int64
	bytesOut, bytesIn   atomic.Int64
	invokeReqs          atomic.Int64
}

// envelopeHeader is the wire size of a frame without its payload.
var envelopeHeader = int64(len(msg.EncodeEnvelope(nil, msg.Envelope{})))

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), pending: make(map[uint64]pendingRTT)}
	for i := range t.callers {
		t.callers[i].cur.Store(noSpan)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// setOwners tells the tracer which caller invokes each object, so a
// request frame can be attached to the span of the caller that sent it.
func (t *tracer) setOwners(owner map[edenid.ID]int) {
	if t != nil {
		t.owner.Store(&owner)
	}
}

// reset drops everything recorded so far; call it when timing starts.
// Callers must not be running.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	for i := range t.callers {
		t.callers[i].spans = t.callers[i].spans[:0]
		t.callers[i].cur.Store(noSpan)
	}
	t.mu.Lock()
	t.net = t.net[:0]
	t.pending = make(map[uint64]pendingRTT)
	t.mu.Unlock()
	t.framesOut.Store(0)
	t.framesIn.Store(0)
	t.bytesOut.Store(0)
	t.bytesIn.Store(0)
	t.invokeReqs.Store(0)
}

// begin opens a span for caller under its innermost open span and
// returns its index. A nil tracer records nothing.
func (t *tracer) begin(caller int, name uint8) int {
	if t == nil {
		return 0
	}
	cs := &t.callers[caller]
	cs.spans = append(cs.spans, span{start: t.now(), parent: cs.cur.Load(), name: name})
	idx := len(cs.spans) - 1
	cs.cur.Store(int64(caller)<<40 | int64(idx))
	return idx
}

// end closes span idx of caller.
func (t *tracer) end(caller, idx int) {
	if t == nil {
		return
	}
	cs := &t.callers[caller]
	cs.spans[idx].end = t.now()
	cs.cur.Store(cs.spans[idx].parent)
}

// parentOf returns the innermost open span of the caller that owns the
// request's target, or noSpan.
func (t *tracer) parentOf(env msg.Envelope) int64 {
	owners := t.owner.Load()
	if owners == nil {
		return noSpan
	}
	req, err := msg.DecodeInvokeReq(env.Payload)
	if err != nil {
		return noSpan
	}
	c, ok := (*owners)[req.Target.ID()]
	if !ok {
		return noSpan
	}
	return t.callers[c].cur.Load()
}

// tracingTransport wraps the client kernel's transport: it times each
// Send, counts frames and bytes both ways, and pairs each invocation
// reply with its request by correlation id.
type tracingTransport struct {
	transport.Transport
	t *tracer
}

func (w *tracingTransport) Send(env msg.Envelope) error {
	t := w.t
	start := t.now()
	isReq := env.Kind == msg.KindInvokeReq
	parent := int64(noSpan)
	if isReq {
		parent = t.parentOf(env)
		// Registered before the frame leaves: the reply can arrive
		// before Send returns.
		t.mu.Lock()
		t.pending[env.Corr] = pendingRTT{start: start, parent: parent}
		t.mu.Unlock()
	}
	err := w.Transport.Send(env)
	end := t.now()
	t.framesOut.Add(1)
	t.bytesOut.Add(envelopeHeader + int64(len(env.Payload)))
	if isReq {
		t.invokeReqs.Add(1)
		t.mu.Lock()
		t.net = append(t.net, span{start: start, end: end, parent: parent, name: spanSend})
		t.mu.Unlock()
	}
	return err
}

func (w *tracingTransport) SetHandler(h transport.Handler) {
	t := w.t
	w.Transport.SetHandler(func(env msg.Envelope) {
		t.framesIn.Add(1)
		t.bytesIn.Add(envelopeHeader + int64(len(env.Payload)))
		if env.Kind == msg.KindInvokeRep {
			now := t.now()
			t.mu.Lock()
			if p, ok := t.pending[env.Corr]; ok {
				delete(t.pending, env.Corr)
				t.net = append(t.net, span{start: p.start, end: now, parent: p.parent, name: spanRTT})
			}
			t.mu.Unlock()
		}
		h(env)
	})
}

// flatten merges the caller lists and the transport list into one span
// list whose parents are indexes into it. Callers must have stopped.
func (t *tracer) flatten() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var base [callers]int64
	n := 0
	for i := range t.callers {
		base[i] = int64(n)
		n += len(t.callers[i].spans)
	}
	remap := func(id int64) int64 {
		if id == noSpan {
			return noSpan
		}
		return base[id>>40] + id&(1<<40-1)
	}
	out := make([]span, 0, n+len(t.net))
	for i := range t.callers {
		for _, s := range t.callers[i].spans {
			if s.parent != noSpan {
				s.parent = base[i] + s.parent&(1<<40-1)
			}
			out = append(out, s)
		}
	}
	for _, s := range t.net {
		s.parent = remap(s.parent)
		out = append(out, s)
	}
	return out
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	// Children as linked lists: head[p] is p's first child, next[c] the
	// sibling after c.
	head := make([]int64, len(spans))
	next := make([]int64, len(spans))
	for i := range head {
		head[i] = noSpan
	}
	for i := len(spans) - 1; i >= 0; i-- {
		if p := spans[i].parent; p != noSpan {
			next[i] = head[p]
			head[p] = int64(i)
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ a, b int64 }
	var ivs []iv
	for i, s := range spans {
		self[i] = s.end - s.start
		ivs = ivs[:0]
		for k := head[i]; k != noSpan; k = next[k] {
			a, b := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered int64
		for j := 0; j < len(ivs); {
			a, b := ivs[j].a, ivs[j].b
			for j++; j < len(ivs) && ivs[j].a <= b; j++ {
				b = max(b, ivs[j].b)
			}
			covered += b - a
		}
		self[i] -= covered
	}
	return self
}

// spanSummary aggregates spans of one name.
type spanSummary struct {
	count    int64
	sumNanos int64
	durs     []int64 // durations, for quantiles
}

func (s spanSummary) meanUS() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.sumNanos) / float64(s.count) / 1e3
}

// summarize groups closed spans by name.
func summarize(spans []span) map[uint8]*spanSummary {
	out := make(map[uint8]*spanSummary)
	for _, s := range spans {
		if s.end == 0 {
			continue
		}
		sum := out[s.name]
		if sum == nil {
			sum = &spanSummary{}
			out[s.name] = sum
		}
		d := s.end - s.start
		sum.count++
		sum.sumNanos += d
		sum.durs = append(sum.durs, d)
	}
	return out
}

// unaccountedShare is the share of total operation time that no child
// span of an operation covers: the benchmark's own loop, input
// generation and output checks, plus any layer it does not trace.
func unaccountedShare(spans []span, self []int64) float64 {
	var total, uncovered int64
	for i, s := range spans {
		if s.name != spanOp || s.end == 0 {
			continue
		}
		total += s.end - s.start
		uncovered += self[i]
	}
	if total == 0 {
		return 0
	}
	return float64(uncovered) / float64(total)
}

// writeSpans stores the spans as gzipped CSV: id,parent,name,start_ns,end_ns.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", i, s.parent, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
