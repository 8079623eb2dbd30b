package kernel

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eden/internal/capability"
	"eden/internal/edenid"
	"eden/internal/msg"
	"eden/internal/rights"
	"eden/internal/segment"
)

// objState is the lifecycle state of an active object's in-memory
// incarnation.
type objState uint8

const (
	// stActive: admission starts processes for queued invocations.
	stActive objState = iota
	// stMoving: a move is in progress; invocations wait in the
	// admission queues until the move commits (they are answered with
	// StatusMoved) or aborts (they are scheduled here).
	stMoving
	// stDown: the active state has been destroyed (crash or
	// passivation); this incarnation is finished.
	stDown
)

// Object is one active Eden object: "a unique name, a representation
// (a data part), a type ..., and some number of invocations (threads
// of control)". The representation is long-term state; everything
// else here — admission queues, class counters, semaphores, ports,
// behaviors — is short-term state that "is never written to long-term
// storage".
type Object struct {
	k  *Kernel
	id edenid.ID
	tm *TypeManager

	// mu is a reader/writer lock on the representation: View calls
	// from the bounded reader pool share it, while Update and
	// Checkpoint's snapshot exclude everything.
	mu      sync.RWMutex
	rep     *segment.Representation
	version uint64 // checkpoint version counter
	frozen  bool

	// epoch is the object's residency epoch: set before the incarnation
	// is published (Create, activate, acceptShip) and immutable for its
	// lifetime — only a committed move creates a new incarnation, at the
	// destination, one epoch up. Recovery orders incarnations by it
	// (movetxn.go), so it needs no lock.
	epoch uint64

	// sched guards the incarnation's lifecycle state and its admission
	// state machine. It is separate from mu so admission can start
	// processes while readers sit inside View holding mu: with a single
	// RWMutex, one blocked reader would stall admission — and, since a
	// waiting writer blocks new RLocks, serialize the whole pool.
	sched       sync.Mutex
	state       objState
	movedTo     uint32     // valid once state becomes stMoving->moved
	running     int        // handler processes currently executing
	lastInvoked int64      // monotonic tick of the last admitted invocation
	drained     *sync.Cond // on sched
	adm         admission  // on sched

	charged atomic.Int64 // bytes charged to the node's memory budget

	// replica marks an incarnation serving for a remote home: a frozen
	// replica cached here, or (shadow) a read-only reincarnation of the
	// home's last checkpoint. home names the object's true home node.
	// A shadow's version is fixed at construction — it never
	// checkpoints — so the field may be read without mu once the
	// shadow is published.
	replica bool
	shadow  bool
	home    uint32

	down chan struct{} // closed when active state is destroyed

	semMu sync.Mutex
	sems  map[string]*Semaphore
	ports map[string]*Port

	behaviors sync.WaitGroup
}

// callCtx is one invocation traveling through admission.
type callCtx struct {
	op      string
	data    []byte
	caps    capability.List
	rts     rights.Set
	replyCh chan msg.InvokeRep
	// deadline is the caller's absolute time limit; admission sheds the
	// call instead of dispatching a process once it has passed. Zero
	// means no deadline.
	deadline time.Time
	// queued tracks the admission-queue depth gauge: set by dispatch
	// when the call is charged to the gauge, cleared (exactly once, by
	// whichever side disposes of the call) when it leaves admission.
	// Once the call is queued it is only touched under o.sched.
	queued bool
	// resolved is the operation admit resolved the call to.
	resolved *Operation
}

func (k *Kernel) newObject(id edenid.ID, tm *TypeManager, rep *segment.Representation, version uint64, frozen bool) *Object {
	o := &Object{
		k:       k,
		id:      id,
		tm:      tm,
		rep:     rep,
		version: version,
		frozen:  frozen,
		down:    make(chan struct{}),
		sems:    make(map[string]*Semaphore),
		ports:   make(map[string]*Port),
	}
	o.drained = sync.NewCond(&o.sched)
	// One admission counter per limited class reachable through the
	// type (including inherited ops).
	for class, limit := range collectClassLimits(k.types, tm) {
		if limit > 0 {
			if o.adm.classLim == nil {
				o.adm.classLim = make(map[string]int)
				o.adm.classRun = make(map[string]int)
			}
			o.adm.classLim[class] = limit
		}
	}
	return o
}

// collectClassLimits walks the type and its supertypes gathering the
// effective limit for every class mentioned by any operation or limit
// declaration.
func collectClassLimits(reg *Registry, tm *TypeManager) map[string]int {
	limits := make(map[string]int)
	seen := 0
	for cur := tm; cur != nil && seen < 64; seen++ {
		for class, n := range cur.ClassLimits {
			if _, have := limits[class]; !have {
				limits[class] = n
			}
		}
		for _, op := range cur.Operations {
			if _, have := limits[op.Class]; !have {
				limits[op.Class] = reg.classLimit(tm, op.Class)
			}
		}
		if cur.Extends == "" {
			break
		}
		next, err := reg.Lookup(cur.Extends)
		if err != nil {
			break
		}
		cur = next
	}
	return limits
}

// ID returns the object's unique name.
//
//edenvet:ignore capleak the kernel implements the capability layer; type managers mint capabilities from this name via SelfCapability
func (o *Object) ID() edenid.ID { return o.id }

// TypeName returns the name of the object's type manager.
func (o *Object) TypeName() string { return o.tm.Name }

// Node returns the number of the node currently supporting the object.
func (o *Object) Node() uint32 { return o.k.cfg.Node }

// Frozen reports whether the representation has been made immutable.
func (o *Object) Frozen() bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.frozen
}

// IsReplica reports whether this incarnation is a cached frozen
// replica rather than the object's home.
func (o *Object) IsReplica() bool { return o.replica }

// Epoch returns the object's residency epoch: incremented by every
// committed move, constant across checkpoints at one home.
func (o *Object) Epoch() uint64 { return o.epoch }

// Version returns the object's current checkpoint version.
func (o *Object) Version() uint64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.version
}

// SelfCapability returns a capability for the object itself carrying
// the given rights. An object may mint any rights over itself — it is
// its own ultimate authority.
func (o *Object) SelfCapability(rts rights.Set) capability.Capability {
	return capability.New(o.id, rts)
}

// View runs fn with read access to the representation. fn must not
// mutate the representation, block on kernel operations, or retain
// the representation beyond the call. Views share the representation
// lock, so processes of the reader pool execute concurrently.
func (o *Object) View(fn func(r *segment.Representation)) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	fn(o.rep)
}

// Update runs fn with write access to the representation, serialized
// against all other access. It fails with ErrFrozen once the object
// has been frozen. A non-nil error from fn aborts nothing — the
// representation is mutated in place — so handlers should validate
// before mutating; the error is passed through for convenience.
// Representation growth is charged against the node's virtual-memory
// budget as it happens.
func (o *Object) Update(fn func(r *segment.Representation) error) error {
	o.mu.Lock()
	if o.frozen {
		o.mu.Unlock()
		return ErrFrozen
	}
	err := fn(o.rep)
	newSize := int64(o.rep.Size())
	o.mu.Unlock()
	o.k.recharge(o, newSize)
	return err
}

// Semaphore returns the named semaphore, creating it with the given
// initial value on first use. Semaphores are short-term state: they
// die with the incarnation.
func (o *Object) Semaphore(name string, initial int) *Semaphore {
	o.semMu.Lock()
	defer o.semMu.Unlock()
	if s, ok := o.sems[name]; ok {
		return s
	}
	s := newSemaphore(initial, initial+64, o.down)
	o.sems[name] = s
	return s
}

// Port returns the named message port, creating it with the given
// capacity on first use.
func (o *Object) Port(name string, capacity int) *Port {
	o.semMu.Lock()
	defer o.semMu.Unlock()
	if p, ok := o.ports[name]; ok {
		return p
	}
	p := newPort(capacity, o.down, o.k.tel.portWait)
	o.ports[name] = p
	return p
}

// SpawnBehavior starts a detached process within the object: it
// "operate[s] independently of invocations, except that [it] may
// exchange signals or data through any of the intra-object
// communication mechanisms". The function must return promptly after
// stop is closed; passivation and crash wait for all behaviors.
func (o *Object) SpawnBehavior(fn func(stop <-chan struct{})) {
	o.behaviors.Add(1)
	go func() {
		defer o.behaviors.Done()
		fn(o.down)
	}()
}

// maxWriteBatch bounds how many commuting writers share one exclusive
// admission — the write-side analogue of the reader pool.
const maxWriteBatch = 16

// admission is an object's scheduling state: Eden's "tree of processes"
// for one object. Read-only calls fan out to a bounded pool of
// concurrently executing processes; mutating calls drain the readers
// and run exclusively, in arrival order, with preference over newly
// arriving readers; shared calls run alongside both. Every access
// class is bounded by the invocation-class limits, every queue by
// Config.AdmissionQueue, and every queued call by its caller's
// deadline. Two extensions pipeline the write path: writers suspended
// in a nested invoke release exclusivity and re-acquire through
// resumeQ with priority over everything queued, and a consecutive run
// of queued calls to one Commutes operation shares a single exclusive
// admission (writers counts the processes sharing it).
//
// The paper's coordinator — "reception of invocation requests ...,
// verification of rights, and dispatching of processes to
// invocations" — is a role, not a thread: arrivals (admit), process
// completions, writer yields and re-acquisitions, move aborts and
// destruction each drive this state machine inline, under o.sched.
type admission struct {
	readQ   []*callCtx  // read-only calls awaiting a pool slot
	writeQ  []*callCtx  // mutating calls awaiting exclusivity
	sharedQ []*callCtx  // shared calls awaiting a class slot
	resumeQ []chan bool // suspended writers awaiting re-acquisition
	readers int         // reader processes currently executing
	writers int         // writer processes holding the current exclusive admission
	// classLim holds the limit of every limited invocation class:
	// "the number of concurrent processes that are allowed to be
	// servicing each class". classRun counts the processes servicing
	// each, a writer suspended in a nested invoke included.
	classLim, classRun map[string]int
}

// admit receives one call on the invoker's goroutine: operation
// resolution, rights verification, the replica and frozen gates, then a
// place in the admission queue of the call's access class. A call that
// reaches a destroyed incarnation is answered at once.
func (o *Object) admit(c *callCtx) {
	op, _, err := o.k.types.resolveOp(o.tm, c.op)
	if err != nil {
		o.answer(c, msg.InvokeRep{Status: msg.StatusNoSuchOperation, Data: []byte(err.Error())})
		return
	}
	// Rights verification: the capability must carry Invoke plus the
	// operation's declared rights.
	need := op.Rights.Union(rights.Invoke)
	if !c.rts.Has(need) {
		o.answer(c, msg.InvokeRep{
			Status: msg.StatusRights,
			Data:   []byte(fmt.Sprintf("operation %q requires rights %v, capability has %v", c.op, need, c.rts)),
		})
		return
	}
	o.mu.RLock()
	replica, frozen, home := o.replica, o.frozen, o.home
	o.mu.RUnlock()
	if replica && op.Access != AccessRead {
		// A replica serves only operations registered AccessRead: the
		// declaration is what proves (statically, via accesspurity) that
		// the handler cannot diverge the copy from the home's state.
		// Everything else bounces to the home node.
		o.answer(c, movedReply(home))
		return
	}
	if frozen && op.Access != AccessRead {
		o.answer(c, msg.InvokeRep{Status: msg.StatusFrozen, Data: []byte("representation is frozen")})
		return
	}
	c.resolved = op
	o.sched.Lock()
	if o.state == stDown {
		moved := o.movedTo
		o.sched.Unlock()
		o.answer(c, o.k.downReply(o.id, moved))
		return
	}
	q := &o.adm.sharedQ
	switch op.Access {
	case AccessRead:
		q = &o.adm.readQ
	case AccessWrite:
		q = &o.adm.writeQ
	}
	if len(*q) >= o.k.cfg.AdmissionQueue {
		o.sched.Unlock()
		o.shedFull(c)
		return
	}
	*q = append(*q, c)
	o.schedule()
	o.sched.Unlock()
}

// downReply answers a call that reached a destroyed incarnation. One
// retired toward a live home (a move, or a shadow superseded by a
// fresher checkpoint) records the destination; failing that, a
// forwarding pointer left by a later incarnation's move names it.
// Anything else crashed. It takes k.mu, so never call it holding
// o.sched.
func (k *Kernel) downReply(id edenid.ID, moved uint32) msg.InvokeRep {
	if moved != 0 {
		return movedReply(moved)
	}
	k.mu.Lock()
	fwd, isFwd := k.forwards[id]
	k.mu.Unlock()
	if isFwd {
		return movedReply(fwd)
	}
	return msg.InvokeRep{Status: msg.StatusCrashed}
}

// schedule is the admission policy; the caller holds o.sched. Expired
// calls are shed first — they cost a queue slot, never a process.
// Nothing starts unless the incarnation is active: during a move,
// calls wait in the queues for its outcome. Then shared calls start
// wherever their class has room, and in strict priority order:
// suspended writers re-acquire exclusivity (they hold partially
// applied work and predate everything queued), a pending writer waits
// only for running readers to drain (writer preference — queued
// readers stay queued), writers run one exclusive admission at a time
// in arrival order — shared by a consecutive run of commuting calls —
// and readers fan out up to the pool bound.
func (o *Object) schedule() {
	a := &o.adm
	if len(a.readQ)+len(a.writeQ)+len(a.sharedQ) > 0 {
		now := time.Now()
		a.readQ = o.shedExpired(a.readQ, now)
		a.writeQ = o.shedExpired(a.writeQ, now)
		a.sharedQ = o.shedExpired(a.sharedQ, now)
	}
	if o.state != stActive {
		return
	}
	a.sharedQ = o.startRunnable(a.sharedQ, AccessShared)
	if len(a.resumeQ) > 0 {
		if a.writers > 0 || a.readers > 0 {
			return // re-acquisition waits for the object to go idle
		}
		grant := a.resumeQ[0]
		a.resumeQ = a.resumeQ[1:]
		a.writers++
		o.running++
		o.lastInvoked = o.k.tick.Add(1)
		grant <- true
		return
	}
	if a.writers > 0 {
		return
	}
	if len(a.writeQ) > 0 {
		if a.readers > 0 || !a.classFree(a.writeQ[0]) {
			return
		}
		op := a.writeQ[0].resolved
		o.start(a.writeQ[0], AccessWrite)
		a.writeQ = a.writeQ[1:]
		// A consecutive run of queued calls for the same Commutes
		// operation joins the admission: their effects commute by
		// declaration, so running them concurrently preserves
		// exclusivity toward everything else while their handler
		// latencies overlap. The run stops at the first call for a
		// different operation (order toward non-commuting work is
		// preserved), at the batch bound, or at the class limit.
		for op.Commutes && len(a.writeQ) > 0 && a.writers < maxWriteBatch &&
			a.writeQ[0].resolved == op && a.classFree(a.writeQ[0]) {
			o.start(a.writeQ[0], AccessWrite)
			a.writeQ = a.writeQ[1:]
			o.k.tel.writeBatched.Inc()
		}
		return
	}
	a.readQ = o.startRunnable(a.readQ, AccessRead)
}

// startRunnable starts, in arrival order, every queued call whose class
// has room — and, for readers, a pool slot — and returns the calls left
// waiting. A call held back by its class limit does not hold back calls
// of other classes queued behind it.
func (o *Object) startRunnable(q []*callCtx, cls Access) []*callCtx {
	kept := q[:0]
	for _, c := range q {
		if (cls == AccessRead && o.adm.readers >= o.k.cfg.ReaderPool) || !o.adm.classFree(c) {
			kept = append(kept, c)
			continue
		}
		o.start(c, cls)
	}
	clear(q[len(kept):])
	return kept
}

// classFree reports whether the call's invocation class has room for
// one more process.
func (a *admission) classFree(c *callCtx) bool {
	lim, limited := a.classLim[c.resolved.Class]
	return !limited || a.classRun[c.resolved.Class] < lim
}

// start dispatches one process for a queued call: "in the normal case,
// a new process will be created and assigned the invocation". The
// caller holds o.sched, has checked the call's class has room, and
// removes the call from its queue.
func (o *Object) start(c *callCtx, cls Access) {
	switch cls {
	case AccessRead:
		o.adm.readers++
	case AccessWrite:
		o.adm.writers++
	}
	if _, limited := o.adm.classLim[c.resolved.Class]; limited {
		o.adm.classRun[c.resolved.Class]++
	}
	o.running++
	o.lastInvoked = o.k.tick.Add(1)
	o.unqueue(c)
	go o.runProcess(c, cls)
}

// shedExpired drops queued calls whose caller deadline has passed: the
// caller has already given up, so dispatching a process for the call
// would only burn a virtual processor on a reply nobody reads.
func (o *Object) shedExpired(q []*callCtx, now time.Time) []*callCtx {
	kept := q[:0]
	for _, c := range q {
		if !c.deadline.IsZero() && now.After(c.deadline) {
			o.k.tel.admissionShed.Inc()
			o.answer(c, msg.InvokeRep{Status: msg.StatusTimeout})
			continue
		}
		kept = append(kept, c)
	}
	// Zero the tail so shed entries do not linger reachable.
	clear(q[len(kept):])
	return kept
}

// shedFull rejects one call because its admission queue hit
// Config.AdmissionQueue: the queue sheds at the door rather than
// growing without bound, matching the transport's bounded send queues.
// Counted under kernel.admission.queue.full (disjoint from
// kernel.admission.shed, which counts deadline expiry).
func (o *Object) shedFull(c *callCtx) {
	o.k.tel.queueFull.Inc()
	o.answer(c, msg.InvokeRep{Status: msg.StatusTimeout})
}

// answer replies to a call that leaves admission without a process.
func (o *Object) answer(c *callCtx, rep msg.InvokeRep) {
	o.unqueue(c)
	c.reply(rep)
}

// unqueue settles the call's admission-queue depth charge. Safe to
// call more than once per call: only the first settles the gauge.
func (o *Object) unqueue(c *callCtx) {
	if c.queued {
		c.queued = false
		o.k.tel.admissionDepth.Add(-1)
	}
}

// movedReply builds the StatusMoved reply carrying the new home node.
func movedReply(dest uint32) msg.InvokeRep {
	return msg.InvokeRep{
		Status: msg.StatusMoved,
		Data:   []byte{byte(dest >> 24), byte(dest >> 16), byte(dest >> 8), byte(dest)},
	}
}

// movedDest extracts the destination from a StatusMoved reply.
func movedDest(rep msg.InvokeRep) (uint32, bool) {
	if len(rep.Data) != 4 {
		return 0, false
	}
	return uint32(rep.Data[0])<<24 | uint32(rep.Data[1])<<16 |
		uint32(rep.Data[2])<<8 | uint32(rep.Data[3]), true
}

// runProcess executes one invocation: run the handler, reply, then
// settle the process's admission slots and schedule what they free.
//
//edenvet:ignore rightsgate admit verifies Invoke plus the operation's declared rights before the call is queued
func (o *Object) runProcess(c *callCtx, cls Access) {
	op := c.resolved
	o.k.tel.serveConc.Add(1)
	call := &Call{
		k:         o.k,
		self:      o,
		Operation: c.op,
		Data:      c.data,
		Caps:      c.caps,
		Rights:    c.rts,
		status:    msg.StatusOK,
		access:    cls,
		holding:   true,
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				call.status = msg.StatusError
				call.replyData = []byte(fmt.Sprintf("operation %q panicked: %v", c.op, r))
			}
		}()
		op.Handler(call)
	}()
	o.k.tel.serveConc.Add(-1)

	// A crash that happened while the handler ran destroys its result:
	// the invoker sees the crash, not a reply from a dead incarnation.
	o.sched.Lock()
	crashed := o.state == stDown && o.movedTo == 0
	o.sched.Unlock()
	if crashed {
		c.reply(msg.InvokeRep{Status: msg.StatusCrashed})
	} else {
		c.reply(msg.InvokeRep{Status: call.status, Data: call.replyData, Caps: call.replyCaps})
	}

	// The reply goes out before the slots are settled, so the invoker
	// can act on it (commit what it just prepared, say) before the
	// calls waiting for those slots start. Settling first hands the
	// waiting calls a head start, and optimistic retry loops contending
	// for one object then burn their attempts on conflicts.
	o.sched.Lock()
	// A writer that yielded for a nested invoke and never got
	// exclusivity back already left the running count and released its
	// slot; settling either again would double-free. Its class slot was
	// held throughout.
	if call.holding {
		o.running--
		if o.running == 0 {
			o.drained.Broadcast()
		}
		switch cls {
		case AccessRead:
			o.adm.readers--
		case AccessWrite:
			o.adm.writers--
		}
	}
	if _, limited := o.adm.classLim[op.Class]; limited {
		o.adm.classRun[op.Class]--
	}
	o.schedule()
	o.sched.Unlock()
}

// reply delivers the invocation outcome exactly once.
func (c *callCtx) reply(rep msg.InvokeRep) {
	select {
	case c.replyCh <- rep:
	default: // already replied (cannot happen in practice; belt and braces)
	}
}

// waitDrained blocks until no handler processes are running. Caller
// must hold o.sched.
func (o *Object) waitDrainedLocked() {
	for o.running > 0 {
		o.drained.Wait()
	}
}

// Call is the context an operation handler receives: the invocation's
// parameters, and the means to produce its reply and to reach the
// kernel ("the major user-kernel interface").
type Call struct {
	k    *Kernel
	self *Object

	// Operation is the invoked operation's name.
	Operation string
	// Data carries the data parameters.
	Data []byte
	// Caps carries the capability parameters.
	Caps capability.List
	// Rights are the rights on the capability the invoker exercised;
	// handlers may vary behavior on type-defined rights bits.
	Rights rights.Set

	status    msg.Status
	replyData []byte
	replyCaps capability.List

	// access is the process's scheduling class; holding reports
	// whether the process currently counts in o.running and (for a
	// writer) holds its exclusive slot. Only the handler goroutine
	// touches holding after dispatch: a writer clears it across the
	// yield window of a nested Call.Invoke and restores it on
	// re-acquisition.
	access  Access
	holding bool
}

// Self returns the object executing the operation.
func (c *Call) Self() *Object { return c.self }

// Kernel returns the local kernel, for nested invocations and object
// creation from within a handler.
func (c *Call) Kernel() *Kernel { return c.k }

// Return sets the invocation's data result.
func (c *Call) Return(data []byte) {
	c.replyData = append([]byte(nil), data...)
}

// ReturnCaps sets the invocation's capability results.
func (c *Call) ReturnCaps(caps ...capability.Capability) {
	c.replyCaps = append(capability.List(nil), caps...)
}

// Fail marks the invocation failed with an application-level message;
// the invoker receives ErrInvocationFailed wrapping the message.
func (c *Call) Fail(format string, args ...interface{}) {
	c.status = msg.StatusError
	c.replyData = []byte(fmt.Sprintf(format, args...))
}

// Invoke performs a nested invocation from inside this operation's
// process. For an AccessWrite process the object's exclusivity is
// released across the wait — admission may start readers, other
// writers, a checkpoint, a passivation, even a move — and re-acquired
// before the handler resumes, so a writer blocked on another object
// no longer holds its home object idle end-to-end. Re-acquisition
// fails (wrapping ErrMoving or ErrCrashed) when the incarnation moved
// away or was destroyed while the writer was suspended; the handler
// must then return without touching the representation — its local
// copy is shipped or gone, and any mutation would be silently lost.
// Mutations applied before the yield travel with a move and are
// captured by a checkpoint taken during the window, so handlers that
// need all-or-nothing effects should mutate only after the nested
// invoke returns. Read and shared processes delegate to Kernel.Invoke
// unchanged, as does Call.Kernel().Invoke for writers that must hold
// exclusivity across the wait.
func (c *Call) Invoke(target capability.Capability, operation string, data []byte, caps capability.List, opts *InvokeOptions) (Reply, error) {
	if c.access != AccessWrite || !c.holding {
		return c.k.Invoke(target, operation, data, caps, opts)
	}
	c.yieldExclusivity()
	rep, err := c.k.Invoke(target, operation, data, caps, opts)
	if rerr := c.reacquireExclusivity(); rerr != nil {
		return Reply{}, rerr
	}
	return rep, err
}

// InvokeAsync starts a nested invocation through the node's async
// dispatcher without suspending the process; exclusivity is retained,
// since nothing blocks. A writer that wants to overlap the wait with
// other work can fire here, mutate, and collect with Pending.Wait —
// but Wait itself holds exclusivity; use Call.Invoke where the wait
// should release the object.
func (c *Call) InvokeAsync(target capability.Capability, operation string, data []byte, caps capability.List, opts *InvokeOptions) *Pending {
	return c.k.InvokeAsync(target, operation, data, caps, opts)
}

// yieldExclusivity releases a writer's exclusive slot: the process
// leaves the running count (so a move's or passivation's quiesce can
// proceed) and admission schedules what the slot frees. The process
// keeps its class slot across the nested wait.
func (c *Call) yieldExclusivity() {
	o := c.self
	c.holding = false
	o.sched.Lock()
	o.running--
	if o.running == 0 {
		o.drained.Broadcast()
	}
	o.adm.writers--
	o.k.tel.writerYield.Inc()
	o.schedule()
	o.sched.Unlock()
}

// reacquireExclusivity parks the writer in admission's resume queue
// until the object is idle again and lifecycle state permits
// resumption; destruction answers the park with false.
func (c *Call) reacquireExclusivity() error {
	o := c.self
	grant := make(chan bool, 1)
	o.sched.Lock()
	down := o.state == stDown
	if !down {
		o.adm.resumeQ = append(o.adm.resumeQ, grant)
		o.schedule()
	}
	o.sched.Unlock()
	if down || !<-grant {
		return c.lostExclusivity()
	}
	c.holding = true
	return nil
}

// lostExclusivity names the lifecycle state that ended a suspended
// writer's incarnation mid-invoke.
func (c *Call) lostExclusivity() error {
	o := c.self
	o.sched.Lock()
	moved := o.movedTo
	o.sched.Unlock()
	if moved != 0 {
		return fmt.Errorf("%w: object moved to node %d during nested invoke", ErrMoving, moved)
	}
	return fmt.Errorf("%w: incarnation destroyed during nested invoke", ErrCrashed)
}

// SegmentInfo describes one representation segment in an anatomy dump.
type SegmentInfo struct {
	// Name is the segment's name within the representation.
	Name string
	// Kind is "data" or "caps".
	Kind string
	// Len is the byte count (data) or capability count (caps).
	Len int
}

// Anatomy is an introspective snapshot of an object — the four parts
// of Figure 4 of the paper: unique name, representation, type, and
// short-term state.
type Anatomy struct {
	// Name is the object's unique name.
	//
	//edenvet:ignore capleak anatomy dumps reproduce the paper's Figure 4, which shows the raw unique name; no authority is conferred
	Name edenid.ID
	// TypeName identifies the type manager.
	TypeName string
	// Operations lists the operations reachable on the type (own and
	// inherited), sorted.
	Operations []string
	// Segments describes the representation's long-term state.
	Segments []SegmentInfo
	// RepBytes is the representation's total size.
	RepBytes int
	// Running is the number of invocation processes executing now.
	Running int
	// Classes maps invocation classes to their concurrency limits
	// (0 = unlimited).
	Classes map[string]int
	// Semaphores and Ports list live short-term synchronization state.
	Semaphores, Ports []string
	// Version is the checkpoint version.
	Version uint64
	// Frozen and Replica report immutability and replica status.
	Frozen, Replica bool
}

// Describe returns an introspective snapshot of the object, used by
// the figure renderer to regenerate the paper's object-anatomy figure
// from a live system.
func (o *Object) Describe() Anatomy {
	a := Anatomy{
		Name:     o.id,
		TypeName: o.tm.Name,
		Replica:  o.replica,
		Classes:  collectClassLimits(o.k.types, o.tm),
	}
	ops := make(map[string]bool)
	for cur, depth := o.tm, 0; cur != nil && depth < 64; depth++ {
		for name := range cur.Operations {
			ops[name] = true
		}
		if cur.Extends == "" {
			break
		}
		next, err := o.k.types.Lookup(cur.Extends)
		if err != nil {
			break
		}
		cur = next
	}
	for name := range ops {
		a.Operations = append(a.Operations, name)
	}
	sort.Strings(a.Operations)

	o.sched.Lock()
	a.Running = o.running
	o.sched.Unlock()

	o.mu.RLock()
	a.Version = o.version
	a.Frozen = o.frozen
	a.RepBytes = o.rep.Size()
	for _, name := range o.rep.Names() {
		info := SegmentInfo{Name: name}
		if caps, err := o.rep.Caps(name); err == nil {
			info.Kind, info.Len = "caps", len(caps)
		} else if data, err := o.rep.Data(name); err == nil {
			info.Kind, info.Len = "data", len(data)
		}
		a.Segments = append(a.Segments, info)
	}
	o.mu.RUnlock()

	o.semMu.Lock()
	for name := range o.sems {
		a.Semaphores = append(a.Semaphores, name)
	}
	for name := range o.ports {
		a.Ports = append(a.Ports, name)
	}
	o.semMu.Unlock()
	sort.Strings(a.Semaphores)
	sort.Strings(a.Ports)
	return a
}

// Invoke performs a location-independent invocation on behalf of this
// object — the way behaviors and other detached processes inside an
// object reach the rest of the system ("programming in Eden consists
// of defining types that invoke operations on objects of other
// types"). Handlers can equivalently use Call.Kernel().Invoke.
func (o *Object) Invoke(target capability.Capability, operation string, data []byte, caps capability.List, opts *InvokeOptions) (Reply, error) {
	return o.k.Invoke(target, operation, data, caps, opts)
}

// Subprocess starts a subordinate process to aid the invocation's
// execution: "this new process may also create other subordinate
// processes to aid in its execution. On a node with multiprocessing
// capability, these processes could execute concurrently." The
// subprocess counts as part of the object's executing work: moves and
// passivation drain it like any invocation process. The returned
// channel closes when fn returns.
func (c *Call) Subprocess(fn func()) <-chan struct{} {
	o := c.self
	o.sched.Lock()
	o.running++
	o.sched.Unlock()
	done := make(chan struct{})
	go func() {
		defer func() {
			if r := recover(); r != nil {
				// A subordinate's panic is contained like a handler's.
				_ = r
			}
			o.sched.Lock()
			o.running--
			if o.running == 0 {
				o.drained.Broadcast()
			}
			o.sched.Unlock()
			close(done)
		}()
		fn()
	}()
	return done
}
