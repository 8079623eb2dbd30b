package main

import (
	"fmt"
	"math"
	"sort"

	"eden/internal/telemetry"
)

// metric is one named, unit-carrying number of the output.
type metric struct {
	name  string
	unit  string
	value float64
}

// metrics collects output metrics in order.
type metrics []metric

func (ms *metrics) add(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	*ms = append(*ms, metric{name: name, unit: unit, value: v})
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// interpQuantile is the q-quantile of xs (unsorted), interpolated
// between the two nearest of the sorted values; 0 for none.
func interpQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// opsPerSecond is the completed operations over the timed run's
// elapsed time.
func (p *phaseResult) opsPerSecond() float64 {
	return ratio(float64(len(p.lat)), p.elapsed.Seconds())
}

// endToEnd is what a user of the cluster sees, from an untraced run.
func endToEnd(p *phaseResult) metrics {
	ops := float64(len(p.lat))
	var cpu, hwm float64
	for i := range p.procAfter {
		cpu += float64(p.procAfter[i].cpuUS - p.procBefore[i].cpuUS)
		hwm += float64(p.procAfter[i].hwmKB)
	}
	var ms metrics
	ms.add("setup_s", "s", p.setupS)
	ms.add("ops_per_s", "1/s", p.opsPerSecond())
	ms.add("p50_us", "us", float64(quantile(p.lat, 0.50))/1e3)
	ms.add("p99_us", "us", float64(quantile(p.lat, 0.99))/1e3)
	ms.add("server_cpu_us_per_op", "us", ratio(cpu, ops))
	ms.add("server_rss_mb", "MB", hwm/1024)
	return ms
}

// overRepeats is the quantile of its repeats' values that an untraced
// run reports for each end-to-end metric. A timing is the better
// quartile: the host is shared, and its other tenants slow a repeat
// down (by taking the CPUs, hyperthread siblings, the caches or the
// disk, not all of which shows as steal), so the better repeats are the
// closer to the program's own cost, while a change to the program shows
// in every repeat. The quartile rather than the best repeat, because
// the best of many is itself an outlier: a rare fast stretch of the
// host. Set-up time and memory are the median.
var overRepeats = map[string]float64{
	"setup_s":              0.5,
	"ops_per_s":            0.75,
	"p50_us":               0.25,
	"p99_us":               0.25,
	"server_cpu_us_per_op": 0.25,
	"server_rss_mb":        0.5,
}

// overAll is, metric by metric, each metric's overRepeats value over
// repeats of the same metrics in the same order.
func overAll(each []metrics) metrics {
	var out metrics
	for i, m := range each[0] {
		v := make([]float64, len(each))
		for r := range each {
			v[r] = each[r][i].value
		}
		out.add(m.name, m.unit, interpQuantile(v, overRepeats[m.name]))
	}
	return out
}

// delta isolates the samples one registry recorded in the timed window.
type delta struct{ before, after telemetry.Snapshot }

func (d delta) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

func (d delta) hist(name string) telemetry.HistogramSnapshot {
	return d.after.Histograms[name].Sub(d.before.Histograms[name])
}

// meanUS is the exact mean of a histogram delta in microseconds (for a
// count histogram, in its own unit).
func meanUS(h telemetry.HistogramSnapshot) float64 {
	return ratio(float64(h.SumNanos), float64(h.Count)) / 1e3
}

// p99US is the log2-bucket estimate of a histogram delta's 99th
// percentile in microseconds.
func p99US(h telemetry.HistogramSnapshot) float64 {
	return float64(h.Quantile(0.99)) / 1e3
}

// perLayer breaks a traced run down by the layers an operation
// crosses; base is the untraced run of the same workload and seed.
func perLayer(p, base *phaseResult) metrics {
	ops := float64(len(p.lat))
	var ms metrics
	sum := summarize(p.spans)
	get := func(name uint8) *spanSummary {
		if s := sum[name]; s != nil {
			return s
		}
		return &spanSummary{}
	}
	bench := delta{p.benchBefore, p.benchAfter}
	rtt := get(spanRTT)
	sort.Slice(rtt.durs, func(i, j int) bool { return rtt.durs[i] < rtt.durs[j] })
	n1dispatch := delta{p.nodeBefore[0], p.nodeAfter[0]}.hist("kernel.dispatch.latency")

	// Caller-side kernel, transport and msg.
	invoke := meanUS(bench.hist("kernel.invoke.remote.latency"))
	ms.add("kernel.invoke.mean_us", "us", invoke)
	ms.add("kernel.invoke.self_mean_us", "us", invoke-rtt.meanUS())
	ms.add("transport.send.mean_us", "us", get(spanSend).meanUS())
	ms.add("transport.rtt.mean_us", "us", rtt.meanUS())
	ms.add("transport.rtt.p99_us", "us", float64(quantile(rtt.durs, 0.99))/1e3)
	ms.add("transport.wire.mean_us", "us", rtt.meanUS()-meanUS(n1dispatch))
	ms.add("transport.frames_per_op", "frames/op", ratio(float64(p.framesOut+p.framesIn), ops))
	ms.add("transport.bytes_per_op", "bytes/op", ratio(float64(p.bytesOut+p.bytesIn), ops))

	// Locator.
	hits := float64(p.locAfter.Hits - p.locBefore.Hits)
	misses := float64(p.locAfter.Misses - p.locBefore.Misses)
	ms.add("locator.hit_ratio", "ratio", ratio(hits, hits+misses))
	ms.add("locator.broadcasts_per_op", "count/op", ratio(float64(p.locAfter.Broadcasts-p.locBefore.Broadcasts), ops))

	// EFS client (zero on the counter workloads).
	commit := get(spanEFSCommit)
	sort.Slice(commit.durs, func(i, j int) bool { return commit.durs[i] < commit.durs[j] })
	ms.add("efs.read.mean_us", "us", get(spanEFSRead).meanUS())
	ms.add("efs.commit.mean_us", "us", commit.meanUS())
	ms.add("efs.commit.p99_us", "us", float64(quantile(commit.durs, 0.99))/1e3)
	efsTx := 0.0
	if p.workload == "efs-history" {
		efsTx = float64(p.attempted)
	}
	ms.add("efs.invokes_per_tx", "count/op", ratio(float64(p.invokeReqs), efsTx))
	ms.add("efs.conflict_ratio", "ratio", ratio(float64(p.conflicts), efsTx))

	// Accounting.
	ms.add("unaccounted_share", "ratio", unaccountedShare(p.spans, selfTimes(p.spans)))
	ms.add("trace_overhead", "ratio", ratio(p.opsPerSecond(), base.opsPerSecond()))

	// Serving side, per node.
	for i := range p.nodeAfter {
		pre := fmt.Sprintf("n%d.", i+1)
		d := delta{p.nodeBefore[i], p.nodeAfter[i]}
		before, after := p.procBefore[i], p.procAfter[i]
		ckpt := d.hist("kernel.checkpoint.latency")
		put := d.hist("store.put.latency")
		ms.add(pre+"transport.flush.mean_us", "us", meanUS(d.hist("transport.send.flush.latency")))
		// A count histogram: its "nanos" are frames per flush.
		batch := d.hist("transport.send.batch")
		ms.add(pre+"transport.batch.mean_frames", "frames", ratio(float64(batch.SumNanos), float64(batch.Count)))
		ms.add(pre+"transport.queue.drops", "count", d.counter("transport.send.queue.drops"))
		ms.add(pre+"transport.reconnects", "count", d.counter("transport.reconnects"))
		ms.add(pre+"kernel.served_per_op", "count/op", ratio(d.counter("kernel.invoke.served"), ops))
		ms.add(pre+"kernel.dispatch.mean_us", "us", meanUS(d.hist("kernel.dispatch.latency")))
		ms.add(pre+"kernel.dispatch.p99_us", "us", p99US(d.hist("kernel.dispatch.latency")))
		ms.add(pre+"kernel.invoke.timeouts", "count", d.counter("kernel.invoke.timeouts"))
		ms.add(pre+"kernel.admission.shed", "count", d.counter("kernel.admission.shed"))
		ms.add(pre+"cpu_us_per_op", "us", ratio(float64(after.cpuUS-before.cpuUS), ops))
		ms.add(pre+"kernel.checkpoint.mean_us", "us", meanUS(ckpt))
		ms.add(pre+"kernel.checkpoint.p99_us", "us", p99US(ckpt))
		ms.add(pre+"kernel.checkpoint.bytes_per_op", "bytes/op", ratio(d.counter("kernel.checkpoint.bytes"), ops))
		// The checkpoint histogram starts after the representation is
		// encoded, so this is the write path outside the store put
		// (checksite policy, remote shipping), not the encode.
		ms.add(pre+"kernel.checkpoint.nonput_mean_us", "us", ratio(float64(ckpt.SumNanos-put.SumNanos), float64(ckpt.Count))/1e3)
		ms.add(pre+"store.put.mean_us", "us", meanUS(put))
		ms.add(pre+"store.put.p99_us", "us", p99US(put))
		ms.add(pre+"store.puts_per_op", "count/op", ratio(d.counter("store.puts"), ops))
		ms.add(pre+"store.errors", "count", d.counter("store.errors"))
		ms.add(pre+"disk.write_bytes_per_op", "bytes/op", ratio(float64(after.writeBytes-before.writeBytes), ops))
		ms.add(pre+"disk.read_bytes_per_op", "bytes/op", ratio(float64(after.readBytes-before.readBytes), ops))
	}
	return ms
}
