package kernel

import (
	"errors"
	"testing"

	"eden/internal/capability"
	"eden/internal/rights"
)

func TestRegistryRegisterAndLookup(t *testing.T) {
	r := NewRegistry()
	tm := NewType("t1")
	tm.Op(Operation{Name: "op", Handler: func(c *Call) {}})
	if err := r.Register(tm); err != nil {
		t.Fatal(err)
	}
	got, err := r.Lookup("t1")
	if err != nil || got != tm {
		t.Errorf("Lookup = %v, %v", got, err)
	}
	if _, err := r.Lookup("missing"); !errors.Is(err, ErrNoSuchType) {
		t.Errorf("missing lookup: %v", err)
	}
}

func TestRegistryRejectsDuplicatesAndNil(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(NewType("dup")); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(NewType("dup")); err == nil {
		t.Error("duplicate registration succeeded")
	}
	if err := r.Register(nil); err == nil {
		t.Error("nil registration succeeded")
	}
	if err := r.Register(NewType("")); err == nil {
		t.Error("unnamed registration succeeded")
	}
}

func TestRegisterRejectsReadOnlyWriter(t *testing.T) {
	// A hand-built Operations map bypasses Op's validation; Register
	// must reject the same contradiction Op panics on, because the
	// admission policy schedules purely on these declarations. A
	// read-only operation asking to be batched as a commuting writer
	// is that contradiction.
	r := NewRegistry()
	tm := NewType("contradiction")
	tm.Operations["boom"] = &Operation{
		Name:     "boom",
		Access:   AccessRead,
		Commutes: true,
		Handler:  func(c *Call) {},
	}
	if err := r.Register(tm); err == nil {
		t.Fatal("Register accepted an AccessRead operation declaring Commutes")
	}
	if _, err := r.Lookup("contradiction"); err == nil {
		t.Error("rejected type was installed anyway")
	}

	// A nil operation in the map is a registration error, not a later
	// dispatch panic.
	nilOp := NewType("nil-op")
	nilOp.Operations["ghost"] = nil
	if err := r.Register(nilOp); err == nil {
		t.Error("Register accepted a nil operation")
	}

	// Consistent declarations register with their access class as
	// written: Access alone decides the reader pool.
	ok := NewType("consistent")
	ok.Operations["ar"] = &Operation{Name: "ar", Access: AccessRead, Handler: func(c *Call) {}}
	ok.Operations["aw"] = &Operation{Name: "aw", Access: AccessWrite, Handler: func(c *Call) {}}
	if err := r.Register(ok); err != nil {
		t.Fatal(err)
	}
	if got := ok.Operations["ar"].Access; got != AccessRead {
		t.Errorf("AccessRead op registered as %v", got)
	}
	if got := ok.Operations["aw"].Access; got != AccessWrite {
		t.Errorf("AccessWrite op registered as %v", got)
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"zebra", "ant", "mole"} {
		if err := r.Register(NewType(n)); err != nil {
			t.Fatal(err)
		}
	}
	names := r.Names()
	want := []string{"ant", "mole", "zebra"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v", names)
		}
	}
}

func TestOpValidation(t *testing.T) {
	tm := NewType("v")
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty name", func() { tm.Op(Operation{Handler: func(c *Call) {}}) })
	mustPanic("nil handler", func() { tm.Op(Operation{Name: "x"}) })
	tm.Op(Operation{Name: "x", Handler: func(c *Call) {}})
	mustPanic("duplicate", func() { tm.Op(Operation{Name: "x", Handler: func(c *Call) {}}) })
	mustPanic("negative limit", func() { tm.Limit("c", -1) })
}

func TestDefaultClassAssigned(t *testing.T) {
	tm := NewType("d")
	tm.Op(Operation{Name: "x", Handler: func(c *Call) {}})
	if tm.Operations["x"].Class != DefaultClass {
		t.Errorf("class = %q", tm.Operations["x"].Class)
	}
}

func TestResolveOpInheritance(t *testing.T) {
	r := NewRegistry()
	base := NewType("base")
	base.Op(Operation{Name: "shared", Handler: func(c *Call) {}})
	mid := NewType("mid")
	mid.Extends = "base"
	mid.Op(Operation{Name: "midop", Handler: func(c *Call) {}})
	leaf := NewType("leaf")
	leaf.Extends = "mid"
	for _, tm := range []*TypeManager{base, mid, leaf} {
		if err := r.Register(tm); err != nil {
			t.Fatal(err)
		}
	}

	op, depth, err := r.resolveOp(leaf, "shared")
	if err != nil || op == nil || depth != 2 {
		t.Errorf("resolveOp(shared) = %v depth %d err %v", op, depth, err)
	}
	op, depth, err = r.resolveOp(leaf, "midop")
	if err != nil || depth != 1 {
		t.Errorf("resolveOp(midop) depth = %d err %v", depth, err)
	}
	if _, _, err := r.resolveOp(leaf, "ghost"); !errors.Is(err, ErrNoSuchOperation) {
		t.Errorf("resolveOp(ghost): %v", err)
	}
}

func TestResolveOpBrokenChain(t *testing.T) {
	r := NewRegistry()
	orphan := NewType("orphan")
	orphan.Extends = "never-registered"
	if err := r.Register(orphan); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.resolveOp(orphan, "x"); err == nil {
		t.Error("resolve through missing supertype succeeded")
	}
}

func TestResolveOpCycleTerminates(t *testing.T) {
	r := NewRegistry()
	a := NewType("cyc-a")
	a.Extends = "cyc-b"
	b := NewType("cyc-b")
	b.Extends = "cyc-a"
	_ = r.Register(a)
	_ = r.Register(b)
	if _, _, err := r.resolveOp(a, "x"); err == nil {
		t.Error("cyclic hierarchy resolved an operation")
	}
}

func TestClassLimitInheritance(t *testing.T) {
	r := NewRegistry()
	base := NewType("lim-base")
	base.Limit("w", 3)
	sub := NewType("lim-sub")
	sub.Extends = "lim-base"
	override := NewType("lim-override")
	override.Extends = "lim-base"
	override.Limit("w", 7)
	for _, tm := range []*TypeManager{base, sub, override} {
		if err := r.Register(tm); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.classLimit(sub, "w"); got != 3 {
		t.Errorf("inherited limit = %d, want 3", got)
	}
	if got := r.classLimit(override, "w"); got != 7 {
		t.Errorf("overridden limit = %d, want 7", got)
	}
	if got := r.classLimit(base, "unknown"); got != 0 {
		t.Errorf("unknown class limit = %d, want 0", got)
	}
}

func TestAnatomyDescribe(t *testing.T) {
	s := newSys(t, 1)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	obj, _ := s.ks[1].Object(cap.ID())
	_ = obj.Semaphore("lock", 1)
	_ = obj.Port("box", 2)
	_ = obj.Checkpoint()

	a := obj.Describe()
	if a.Name != cap.ID() {
		t.Errorf("Name = %v", a.Name)
	}
	if a.TypeName != "counter" {
		t.Errorf("TypeName = %q", a.TypeName)
	}
	if a.Version != 1 {
		t.Errorf("Version = %d", a.Version)
	}
	if len(a.Segments) != 1 || a.Segments[0].Name != "n" || a.Segments[0].Kind != "data" || a.Segments[0].Len != 8 {
		t.Errorf("Segments = %+v", a.Segments)
	}
	found := map[string]bool{}
	for _, op := range a.Operations {
		found[op] = true
	}
	for _, want := range []string{"inc", "get", "slow", "fail"} {
		if !found[want] {
			t.Errorf("Operations missing %q: %v", want, a.Operations)
		}
	}
	if lim, ok := a.Classes["write"]; !ok || lim != 1 {
		t.Errorf("Classes = %v", a.Classes)
	}
	if len(a.Semaphores) != 1 || a.Semaphores[0] != "lock" {
		t.Errorf("Semaphores = %v", a.Semaphores)
	}
	if len(a.Ports) != 1 || a.Ports[0] != "box" {
		t.Errorf("Ports = %v", a.Ports)
	}
	if a.Frozen || a.Replica || a.Running != 0 {
		t.Errorf("flags = %+v", a)
	}
}

func TestRightsNeverAmplifiedThroughInvocation(t *testing.T) {
	// An invocation's capability parameters travel verbatim; the
	// receiving handler sees exactly the rights the sender held — no
	// more. (Amplification is impossible by construction: only
	// Restrict exists.)
	s := newSys(t, 1)
	inspect := NewType("inspector")
	inspect.Op(Operation{
		Name: "check",
		Handler: func(c *Call) {
			if len(c.Caps) != 1 {
				c.Fail("want one capability")
				return
			}
			c.Return([]byte(c.Caps[0].Rights().String()))
		},
	})
	mustRegister(t, s.reg, counterType(nil), inspect)
	target, _ := s.ks[1].Create("counter", nil)
	insp, _ := s.ks[1].Create("inspector", nil)
	weak := target.Restrict(rights.Invoke)
	rep, err := s.ks[1].Invoke(insp, "check", nil, capability.List{weak}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(rep.Data) != "invoke" {
		t.Errorf("receiver saw rights %q, want %q", rep.Data, "invoke")
	}
}
