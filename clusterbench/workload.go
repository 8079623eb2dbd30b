package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"eden/internal/capability"
	"eden/internal/edenid"
	"eden/internal/efs"
	"eden/internal/kernel"
)

const (
	// callers is the number of closed-loop callers: each waits for its
	// reply before issuing its next operation, as Eden invocation is
	// synchronous.
	callers = 2
	// counterObjects is the counter layout of invoke-read and
	// durable-write, all on node 1.
	counterObjects = 64
	// efsFiles is the number of EFS primaries on node 1, each with a
	// mirror on node 2.
	efsFiles = 32
	// efsPreload is the history every EFS file has before timing starts.
	efsPreload = 256
	// efsContent is the size of every EFS version.
	efsContent = 256
	// efsCommitsPerFilePerSecond sizes efs-history's fixed work: each
	// file gets this many commits per second of a measured window. A
	// fixed count keeps the history depth the same on a faster build.
	efsCommitsPerFilePerSecond = 10
	// opTimeout bounds every invocation the benchmark issues.
	opTimeout = 5 * time.Second
)

var invokeOpts = &kernel.InvokeOptions{Timeout: opTimeout}

// workload is one benchmark traffic mix.
type workload interface {
	// setup creates and preloads the objects on a fresh cluster and
	// warms every path the timed run takes.
	setup(c *cluster) error
	// owners maps each invoked object to the caller that alone invokes it.
	owners() map[edenid.ID]int
	// more reports whether caller has another operation to issue.
	more(caller int, deadline time.Time) bool
	// op issues caller's next operation. A wrong reply is reported
	// through violation, not as the error.
	op(c *cluster, caller int) error
	// check verifies that the cluster serves every acknowledged value.
	check(c *cluster) error
	// durable reports whether the workload's acknowledged values must
	// survive a node kill.
	durable() bool
	// violation returns the first wrong reply seen during the run.
	violation() error
}

func newWorkload(name string, seed int64, window time.Duration) (workload, error) {
	switch name {
	case "invoke-read":
		return newCounterLoad(seed, false), nil
	case "durable-write":
		return newCounterLoad(seed, true), nil
	case "efs-history":
		return newEFSLoad(seed, max(1, int(efsCommitsPerFilePerSecond*window.Seconds()+0.5))), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want invoke-read, durable-write or efs-history)", name)
}

// mix derives an independent stream seed from seed and salt (splitmix64).
func mix(seed, salt int64) int64 {
	z := uint64(seed) + uint64(salt)*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}

// plan splits objects into disjoint per-caller sets, so a correct run
// has no conflicts and exact expected values.
type plan struct {
	seed  int64
	owner []int
	sets  [callers][]int
}

func newPlan(seed int64, objects int) plan {
	r := rand.New(rand.NewSource(mix(seed, 0)))
	p := plan{seed: seed, owner: make([]int, objects)}
	for i, obj := range r.Perm(objects) {
		c := i % callers
		p.owner[obj] = c
		p.sets[c] = append(p.sets[c], obj)
	}
	return p
}

// callerRand is caller c's private stream of choices.
func (p plan) callerRand(c int) *rand.Rand {
	return rand.New(rand.NewSource(mix(p.seed, int64(c)+1)))
}

func ownersOf(p plan, caps []capability.Capability) map[edenid.ID]int {
	m := make(map[edenid.ID]int, len(caps))
	for i, cp := range caps {
		m[cp.ID()] = p.owner[i]
	}
	return m
}

// firstError keeps the first error reported to it.
type firstError struct {
	mu  sync.Mutex
	err error
}

func (f *firstError) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstError) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// counterLoad drives invoke-read (get) or durable-write (incdur) on 64
// counters on node 1.
type counterLoad struct {
	isDurable bool
	plan      plan
	caps      []capability.Capability
	// value is each counter's expected value; only the owning caller
	// writes a counter's entry. A failed operation fails the run, so
	// the value need not allow for one that may have applied.
	value []uint64
	rng   [callers]*rand.Rand
	tr    *tracer
	wrong firstError
}

func newCounterLoad(seed int64, durable bool) *counterLoad {
	w := &counterLoad{
		isDurable: durable,
		plan:      newPlan(seed, counterObjects),
		value:     make([]uint64, counterObjects),
	}
	for c := range w.rng {
		w.rng[c] = w.plan.callerRand(c)
	}
	return w
}

// preset is invoke-read's starting value of counter i: 0 to 3 incs, so
// a get that answers another counter's value is caught.
func (w *counterLoad) preset(i int) uint64 {
	return uint64(mix(w.plan.seed, int64(1000+i))) % 4
}

func (w *counterLoad) setup(c *cluster) error {
	caps, err := c.createCounters(0, counterObjects)
	if err != nil {
		return err
	}
	w.caps = caps
	w.tr = c.tracer
	// Warm-up: every counter is invoked once through the bench kernel,
	// so the location hints are cached before timing starts.
	for i, cp := range caps {
		if w.isDurable {
			// One incdur also puts the counter's first record in the store.
			if _, err := c.k.Invoke(cp, "incdur", nil, nil, invokeOpts); err != nil {
				return fmt.Errorf("warm-up incdur: %w", err)
			}
			w.value[i] = 1
			continue
		}
		for j := uint64(0); j < w.preset(i); j++ {
			if _, err := c.k.Invoke(cp, "inc", nil, nil, invokeOpts); err != nil {
				return fmt.Errorf("preset inc: %w", err)
			}
		}
		w.value[i] = w.preset(i)
		if _, err := c.k.Invoke(cp, "get", nil, nil, invokeOpts); err != nil {
			return fmt.Errorf("warm-up get: %w", err)
		}
	}
	return nil
}

func (w *counterLoad) owners() map[edenid.ID]int { return ownersOf(w.plan, w.caps) }

func (w *counterLoad) more(_ int, deadline time.Time) bool { return time.Now().Before(deadline) }

func (w *counterLoad) durable() bool { return w.isDurable }

func (w *counterLoad) violation() error { return w.wrong.get() }

// nextObject is caller's next counter, drawn from its own set.
func (w *counterLoad) nextObject(caller int) int {
	set := w.plan.sets[caller]
	return set[w.rng[caller].Intn(len(set))]
}

func (w *counterLoad) op(c *cluster, caller int) error {
	i := w.nextObject(caller)
	opName := "get"
	if w.isDurable {
		opName = "incdur"
	}
	sp := w.tr.begin(caller, spanInvoke)
	rep, err := c.k.Invoke(w.caps[i], opName, nil, nil, invokeOpts)
	w.tr.end(caller, sp)
	if err != nil {
		return err
	}
	want := w.value[i]
	if w.isDurable {
		want++
		w.value[i] = want
	}
	if len(rep.Data) < 8 {
		w.wrong.set(fmt.Errorf("counter %d: %s reply is %d bytes", i, opName, len(rep.Data)))
		return nil
	}
	got := binary.BigEndian.Uint64(rep.Data)
	if got != want {
		w.wrong.set(fmt.Errorf("counter %d: %s replied %d, want %d", i, opName, got, want))
	}
	return nil
}

// check reads every counter's stat and compares it with the value its
// caller was acknowledged.
func (w *counterLoad) check(c *cluster) error {
	for i, cp := range w.caps {
		rep, err := invokeRetry(c.k, cp, "stat", nil)
		if err != nil {
			return fmt.Errorf("counter %d: stat: %w", i, err)
		}
		if len(rep.Data) != 16 {
			return fmt.Errorf("counter %d: stat reply is %d bytes", i, len(rep.Data))
		}
		got := binary.BigEndian.Uint64(rep.Data)
		if got != w.value[i] {
			return fmt.Errorf("counter %d: stat %d, acknowledged %d", i, got, w.value[i])
		}
	}
	return nil
}

// invokeRetry retries an invocation for a few seconds while a
// restarted node comes back and reincarnates the object.
func invokeRetry(k *kernel.Kernel, cp capability.Capability, op string, data []byte) (kernel.Reply, error) {
	limit := time.Now().Add(20 * time.Second)
	for {
		rep, err := k.Invoke(cp, op, data, nil, invokeOpts)
		if err == nil || time.Now().After(limit) {
			return rep, err
		}
		if !errors.Is(err, kernel.ErrTimeout) && !errors.Is(err, kernel.ErrNoSuchObject) && !errors.Is(err, kernel.ErrCrashed) {
			return rep, err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// efsLoad drives efs-history: optimistic transactions on 32 EFS
// primaries on node 1, each mirrored on node 2 and preloaded to a deep
// history. It runs a fixed number of commits per file.
type efsLoad struct {
	plan    plan
	client  *efs.Client
	primary []capability.Capability
	mirror  []capability.Capability
	// sched is each caller's fixed order of files, every file of its
	// set commitsPerFile times; next is the caller's position in it.
	sched [callers][]int
	next  [callers]int
	// acked counts each file's acknowledged commits and last holds its
	// last acknowledged content. Only the owning caller writes a file's
	// entries.
	acked     []int
	last      [][]byte
	conflicts [callers]int
	tr        *tracer
	wrong     firstError
}

func newEFSLoad(seed int64, commitsPerFile int) *efsLoad {
	w := &efsLoad{
		plan:  newPlan(seed, efsFiles),
		acked: make([]int, efsFiles),
		last:  make([][]byte, efsFiles),
	}
	for c := range w.sched {
		for _, f := range w.plan.sets[c] {
			for j := 0; j < commitsPerFile; j++ {
				w.sched[c] = append(w.sched[c], f)
			}
		}
		r := w.plan.callerRand(c)
		r.Shuffle(len(w.sched[c]), func(a, b int) { w.sched[c][a], w.sched[c][b] = w.sched[c][b], w.sched[c][a] })
	}
	return w
}

// preloadWriter stands for "preload" where a payload names its writer.
const preloadWriter = -1

// payload is the content writer puts in file as its seq-th version: a
// readable header naming writer, file and sequence number, then filler
// drawn from the seed.
func payload(seed int64, writer, file, seq int) []byte {
	b := make([]byte, efsContent)
	n := copy(b, fmt.Sprintf("writer=%d file=%d seq=%d|", writer, file, seq))
	s := uint64(mix(seed, int64(writer+2)<<40|int64(file)<<24|int64(seq)))
	for i := n; i < len(b); i++ {
		if (i-n)%8 == 0 {
			s = uint64(mix(int64(s), 1))
		}
		b[i] = byte(s >> (8 * ((i - n) % 8)))
	}
	return b
}

func (w *efsLoad) setup(c *cluster) error {
	w.client = efs.NewClient(c.k, efs.Optimistic)
	w.tr = c.tracer
	w.primary = make([]capability.Capability, efsFiles)
	w.mirror = make([]capability.Capability, efsFiles)
	// Preload on the bench kernel, whose store is in memory, then move
	// each primary to node 1 and each mirror to node 2: committing the
	// history remotely would cost a checkpoint of the whole file per
	// version.
	var wg sync.WaitGroup
	var first firstError
	for c0 := 0; c0 < callers; c0++ {
		wg.Add(1)
		go func(files []int) {
			defer wg.Done()
			for _, f := range files {
				if err := w.preload(c, f); err != nil {
					first.set(fmt.Errorf("preload file %d: %w", f, err))
					return
				}
			}
		}(w.plan.sets[c0])
	}
	wg.Wait()
	if err := first.get(); err != nil {
		return err
	}
	// Warm-up: the last preload version of each file commits on the
	// timed path (node 1 checkpoints it and pushes it to node 2).
	for f, cp := range w.primary {
		tx := w.client.Begin()
		if err := tx.WriteLatest(cp, w.last[f]); err != nil {
			return fmt.Errorf("warm-up read: %w", err)
		}
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("warm-up commit: %w", err)
		}
		latest, _, err := w.client.History(cp)
		if err != nil {
			return fmt.Errorf("warm-up history: %w", err)
		}
		if latest != efsPreload {
			return fmt.Errorf("file %d: preloaded to %d versions, want %d", f, latest, efsPreload)
		}
	}
	return nil
}

func (w *efsLoad) preload(c *cluster, f int) error {
	p, err := w.client.CreateFile()
	if err != nil {
		return err
	}
	m, err := w.client.CreateFile()
	if err != nil {
		return err
	}
	if _, err := c.k.Invoke(p, "add-mirror", nil, capability.List{m}, invokeOpts); err != nil {
		return err
	}
	for v := 1; v < efsPreload; v++ {
		tx := w.client.Begin()
		if err := tx.WriteLatest(p, payload(w.plan.seed, preloadWriter, f, v)); err != nil {
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	for _, mv := range []struct {
		cp   capability.Capability
		node uint32
	}{{m, 2}, {p, 1}} {
		obj, err := c.k.Object(mv.cp.ID())
		if err != nil {
			return err
		}
		if err := <-obj.Move(mv.node); err != nil {
			return fmt.Errorf("move to node %d: %w", mv.node, err)
		}
	}
	w.primary[f], w.mirror[f] = p, m
	w.last[f] = payload(w.plan.seed, preloadWriter, f, efsPreload)
	return nil
}

func (w *efsLoad) owners() map[edenid.ID]int { return ownersOf(w.plan, w.primary) }

func (w *efsLoad) more(caller int, _ time.Time) bool { return w.next[caller] < len(w.sched[caller]) }

func (w *efsLoad) durable() bool { return true }

func (w *efsLoad) violation() error { return w.wrong.get() }

func (w *efsLoad) conflictCount() int {
	n := 0
	for _, c := range w.conflicts {
		n += c
	}
	return n
}

// op runs one transaction: WriteLatest (the read) then Commit (prepare
// and commit; the commit checkpoints and pushes to the mirror).
func (w *efsLoad) op(_ *cluster, caller int) error {
	f := w.sched[caller][w.next[caller]]
	w.next[caller]++
	seq := efsPreload + w.acked[f] + 1
	data := payload(w.plan.seed, caller, f, seq)
	tx := w.client.Begin()
	sp := w.tr.begin(caller, spanEFSRead)
	err := tx.WriteLatest(w.primary[f], data)
	w.tr.end(caller, sp)
	if err == nil {
		sp = w.tr.begin(caller, spanEFSCommit)
		err = tx.Commit()
		w.tr.end(caller, sp)
	}
	if err != nil {
		if errors.Is(err, efs.ErrConflict) {
			w.conflicts[caller]++
		}
		return err
	}
	w.acked[f]++
	w.last[f] = data
	return nil
}

// check verifies each primary's history and content against what its
// caller was acknowledged, and that each mirror is as current as its
// primary.
func (w *efsLoad) check(c *cluster) error {
	for f, cp := range w.primary {
		rep, err := invokeRetry(c.k, cp, "history", nil)
		if err != nil {
			return fmt.Errorf("file %d: history: %w", f, err)
		}
		if len(rep.Data) != 16 {
			return fmt.Errorf("file %d: history reply is %d bytes", f, len(rep.Data))
		}
		latest := int(binary.BigEndian.Uint64(rep.Data))
		want := efsPreload + w.acked[f]
		if latest != want {
			return fmt.Errorf("file %d: latest version %d, acknowledged %d", f, latest, want)
		}
		content, ver, err := w.client.Read(cp)
		if err != nil {
			return fmt.Errorf("file %d: read: %w", f, err)
		}
		if int(ver) != latest {
			return fmt.Errorf("file %d: read version %d, history says %d", f, ver, latest)
		}
		if !bytes.Equal(content, w.last[f]) {
			return fmt.Errorf("file %d: version %d content is not the last acknowledged payload", f, ver)
		}
		mlatest, _, err := w.client.History(w.mirror[f])
		if err != nil {
			return fmt.Errorf("file %d: mirror history: %w", f, err)
		}
		if int(mlatest) != latest {
			return fmt.Errorf("file %d: mirror at version %d, primary at %d", f, mlatest, latest)
		}
	}
	return nil
}
