// Package kernel implements the Eden kernel: "the software interface
// supplying location-independent object support".
//
// One Kernel runs per node. It supplies the primitives the paper
// enumerates — creation of new types and objects, location-independent
// object invocation, preservation of object long-term state over
// failures, and intra-object communication and synchronization — on top
// of a transport (package transport), the location protocol (package
// locator) and long-term storage (package store).
//
// The mapping from the paper's iAPX-432 machinery to Go is direct:
// Eden processes are goroutines and ports are channels. The
// coordinator is a role, not a thread: each active object's admission
// state lives in the Object under one lock, and whichever goroutine
// delivers an invocation, finishes a process or changes the object's
// lifecycle drives it.
package kernel

import (
	"fmt"
	"sort"
	"sync"

	"eden/internal/rights"
)

// DefaultClass is the invocation class used by operations that do not
// name one. Its concurrency limit defaults to unlimited.
const DefaultClass = "default"

// Access is an operation's declared access class: how its processes
// may share the object's representation. Admission schedules each
// invocation by this declaration — the paper's "tree of processes"
// synchronized by the kernel rather than by every caller serializing
// through one dispatch loop.
type Access uint8

const (
	// AccessShared is the zero value: the operation's processes run
	// concurrently with everything else and the type synchronizes
	// internally through the monitor machinery (invocation-class
	// limits, semaphores, ports). This is the scheduling every
	// operation had before access classes existed.
	AccessShared Access = iota
	// AccessRead declares the operation read-only. Its processes fan
	// out to a bounded per-object pool (Config.ReaderPool) and run
	// concurrently against the representation, but never alongside an
	// AccessWrite process.
	AccessRead
	// AccessWrite declares the operation mutating. Its process runs
	// exclusively: pending readers drain first, queued readers wait
	// behind it (writer preference), and writers execute one at a time
	// in arrival order — except that a consecutive run of queued
	// invocations of one Commutes operation shares a single exclusive
	// admission, and a writer suspended in Call.Invoke releases its
	// exclusivity across the nested wait.
	AccessWrite
)

// String names the access class.
func (a Access) String() string {
	switch a {
	case AccessShared:
		return "shared"
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	default:
		return fmt.Sprintf("access(%d)", uint8(a))
	}
}

// Handler is the body of one operation, executed by a process (a
// goroutine) dispatched by the object's admission. The handler
// reads parameters from and writes results to the Call.
type Handler func(c *Call)

// Operation describes one operation of a type: its name, the
// invocation class it belongs to, the rights a capability must carry
// to invoke it, and its body.
type Operation struct {
	// Name is the operation name used in invocation requests.
	Name string
	// Class is the invocation class the operation belongs to. Every
	// operation belongs to exactly one class ("an exhaustive and
	// mutually exclusive set of invocation classes"); empty means
	// DefaultClass.
	Class string
	// Rights are the rights, beyond rights.Invoke, that the invoking
	// capability must carry.
	Rights rights.Set
	// Access is the operation's declared access class; it drives
	// admission's reader/writer scheduling. The zero value
	// (AccessShared) preserves monitor-synchronized concurrency. Only
	// AccessRead operations may be served by a replica on another node
	// or invoked on a frozen object.
	Access Access
	// Commutes declares that concurrent executions of this operation
	// on one object commute — any interleaving of their effects yields
	// the same representation. Admission batches a consecutive run of
	// queued invocations of a commuting operation into one exclusive
	// admission and runs them concurrently. Only legal with
	// AccessWrite: readers already run concurrently, and shared
	// operations schedule outside the reader/writer queues entirely.
	Commutes bool
	// Handler is the operation body.
	Handler Handler
}

// TypeManager is the code of a type: "a collection of procedures
// defining the operations on the object, shared among objects of the
// same type". In the paper a type manager is itself an object whose
// representation holds instruction segments; here its representation
// is Go code registered under the type's name on every node
// (homogeneous nodes make the code universally available, as sharing
// type code across instances did on one node in Eden).
type TypeManager struct {
	// Name is the unique type name.
	Name string
	// Extends optionally names a supertype whose operations this type
	// inherits (the paper's §5 abstract type hierarchy). Lookup of an
	// operation falls back to the supertype chain.
	Extends string
	// Operations maps operation names to their descriptions.
	Operations map[string]*Operation
	// ClassLimits maps invocation class names to their concurrency
	// limits: "the number of concurrent processes that are allowed to
	// be servicing each class". 0 (or absence) means unlimited; 1
	// gives mutual exclusion among the class's operations.
	ClassLimits map[string]int
	// Init, when non-nil, initializes a newly created instance's
	// representation before any invocation is dispatched.
	Init func(o *Object) error
	// Reincarnate, when non-nil, is the reincarnation condition
	// handler: it "does any work needed to reinitialize the object,
	// build temporary data structures, and so on" when a passive
	// object is activated. Invocations are blocked until it returns.
	Reincarnate func(o *Object) error
}

// NewType returns an empty TypeManager with the given name.
func NewType(name string) *TypeManager {
	return &TypeManager{
		Name:        name,
		Operations:  make(map[string]*Operation),
		ClassLimits: make(map[string]int),
	}
}

// Op registers an operation on the type and returns the TypeManager
// for chaining. It panics on duplicate names — a static programming
// error in the type definition.
func (t *TypeManager) Op(op Operation) *TypeManager {
	if op.Name == "" {
		panic("kernel: operation with empty name")
	}
	if op.Handler == nil {
		panic(fmt.Sprintf("kernel: operation %q has no handler", op.Name))
	}
	if _, dup := t.Operations[op.Name]; dup {
		panic(fmt.Sprintf("kernel: duplicate operation %q on type %q", op.Name, t.Name))
	}
	if op.Class == "" {
		op.Class = DefaultClass
	}
	// Commutativity is a property of concurrent mutations; on anything
	// but an exclusive writer the declaration is meaningless and most
	// likely a mistake, so it is rejected. (The accesspurity analyzer
	// mirrors this check.)
	if op.Commutes && op.Access != AccessWrite {
		panic(fmt.Sprintf("kernel: operation %q on type %q declares Commutes without AccessWrite", op.Name, t.Name))
	}
	t.Operations[op.Name] = &op
	return t
}

// Limit sets the concurrency limit for an invocation class and returns
// the TypeManager for chaining.
func (t *TypeManager) Limit(class string, n int) *TypeManager {
	if n < 0 {
		panic("kernel: negative class limit")
	}
	t.ClassLimits[class] = n
	return t
}

// Registry holds the type managers known to a system. Eden nodes are
// homogeneous, so in practice one Registry is shared by every kernel
// in a system.
type Registry struct {
	mu    sync.RWMutex
	types map[string]*TypeManager
}

// NewRegistry returns an empty type registry.
func NewRegistry() *Registry {
	return &Registry{types: make(map[string]*TypeManager)}
}

// Register installs a type manager. Registering a name twice is an
// error (types are immutable once published), and so is a nil
// operation or one declaring Commutes without AccessWrite — a
// hand-built Operations map bypasses Op's validation, and admission
// trusts these declarations completely. (The accesspurity analyzer is
// the static mirror of the Commutes check.)
func (r *Registry) Register(t *TypeManager) error {
	if t == nil || t.Name == "" {
		return fmt.Errorf("kernel: registering unnamed type")
	}
	for name, op := range t.Operations {
		if op == nil {
			return fmt.Errorf("kernel: type %q registers nil operation %q", t.Name, name)
		}
		if op.Commutes && op.Access != AccessWrite {
			return fmt.Errorf("kernel: operation %q on type %q declares Commutes without AccessWrite", name, t.Name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.types[t.Name]; dup {
		return fmt.Errorf("kernel: type %q already registered", t.Name)
	}
	r.types[t.Name] = t
	return nil
}

// Lookup returns the named type manager.
func (r *Registry) Lookup(name string) (*TypeManager, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.types[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchType, name)
	}
	return t, nil
}

// Names returns the registered type names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.types))
	for n := range r.types {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// resolveOp finds the operation on the type, walking the Extends chain
// (subtype inheritance: "the subtype inherits the operations of its
// supertype"). The second result reports the inheritance depth at
// which the operation was found (0 = defined on the type itself).
func (r *Registry) resolveOp(t *TypeManager, name string) (*Operation, int, error) {
	depth := 0
	for cur := t; cur != nil; depth++ {
		if op, ok := cur.Operations[name]; ok {
			return op, depth, nil
		}
		if cur.Extends == "" {
			break
		}
		next, err := r.Lookup(cur.Extends)
		if err != nil {
			return nil, 0, fmt.Errorf("kernel: type %q extends unknown %q", cur.Name, cur.Extends)
		}
		if depth > 64 {
			return nil, 0, fmt.Errorf("kernel: type hierarchy cycle at %q", cur.Name)
		}
		cur = next
	}
	return nil, 0, fmt.Errorf("%w: %q on type %q", ErrNoSuchOperation, name, t.Name)
}

// classLimit returns the concurrency limit for the class on this type,
// inheriting the nearest explicit limit up the Extends chain.
func (r *Registry) classLimit(t *TypeManager, class string) int {
	for cur := t; cur != nil; {
		if n, ok := cur.ClassLimits[class]; ok {
			return n
		}
		if cur.Extends == "" {
			break
		}
		next, err := r.Lookup(cur.Extends)
		if err != nil {
			break
		}
		cur = next
	}
	return 0 // unlimited
}
