package kernel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eden/internal/capability"
	"eden/internal/rights"
	"eden/internal/segment"
	"eden/internal/store"
	"eden/internal/transport"
)

// sys is an N-node Eden system over an in-process mesh, with one
// shared type registry (homogeneous nodes).
type sys struct {
	t      *testing.T
	mesh   *transport.Mesh
	reg    *Registry
	ks     map[uint32]*Kernel
	stores map[uint32]*store.Memory
}

func newSys(t *testing.T, nodes ...uint32) *sys {
	t.Helper()
	s := &sys{
		t:      t,
		mesh:   transport.NewMesh(7),
		reg:    NewRegistry(),
		ks:     make(map[uint32]*Kernel),
		stores: make(map[uint32]*store.Memory),
	}
	t.Cleanup(func() { s.mesh.Close() })
	for _, n := range nodes {
		s.addNode(n)
	}
	return s
}

func (s *sys) addNode(n uint32) *Kernel {
	s.t.Helper()
	ep, err := s.mesh.Attach(n)
	if err != nil {
		s.t.Fatal(err)
	}
	st := store.NewMemory()
	cfg := DefaultConfig(n, fmt.Sprintf("node-%d", n))
	cfg.DefaultTimeout = 750 * time.Millisecond
	k := New(cfg, ep, s.reg, st)
	k.loc.DefaultTimeout = 250 * time.Millisecond
	s.ks[n] = k
	s.stores[n] = st
	s.t.Cleanup(func() { k.Close() })
	return k
}

// crashNode power-fails a node: active state is gone, its store
// survives for a later restart.
func (s *sys) crashNode(n uint32) {
	s.ks[n].Close()
	s.mesh.Detach(n)
}

// restartNode brings a node back with its surviving store.
func (s *sys) restartNode(n uint32) *Kernel {
	s.t.Helper()
	ep, err := s.mesh.Attach(n)
	if err != nil {
		s.t.Fatal(err)
	}
	cfg := DefaultConfig(n, fmt.Sprintf("node-%d", n))
	cfg.DefaultTimeout = 750 * time.Millisecond
	k := New(cfg, ep, s.reg, s.stores[n])
	k.loc.DefaultTimeout = 250 * time.Millisecond
	s.ks[n] = k
	s.t.Cleanup(func() { k.Close() })
	return k
}

// ---- test types ----

func u64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

func fromU64(b []byte) uint64 {
	if len(b) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// counterType builds the canonical test type: a persistent counter
// with read/write invocation classes.
func counterType(reincarnations *atomic.Int64) *TypeManager {
	tm := NewType("counter")
	tm.Init = func(o *Object) error {
		return o.Update(func(r *segment.Representation) error {
			r.SetData("n", u64(0))
			return nil
		})
	}
	if reincarnations != nil {
		tm.Reincarnate = func(o *Object) error {
			reincarnations.Add(1)
			return nil
		}
	}
	tm.Limit("write", 1)
	tm.Op(Operation{
		Name:  "inc",
		Class: "write",
		Handler: func(c *Call) {
			var out uint64
			err := c.Self().Update(func(r *segment.Representation) error {
				cur, err := r.Data("n")
				if err != nil {
					return err
				}
				out = fromU64(cur) + 1
				r.SetData("n", u64(out))
				return nil
			})
			if err != nil {
				c.Fail("inc: %v", err)
				return
			}
			c.Return(u64(out))
		},
	})
	tm.Op(Operation{
		Name:   "get",
		Class:  "read",
		Access: AccessRead,
		Handler: func(c *Call) {
			c.Self().View(func(r *segment.Representation) {
				b, _ := r.Data("n")
				c.Return(b)
			})
		},
	})
	tm.Op(Operation{
		Name:   "guarded",
		Rights: rights.Type(0),
		Handler: func(c *Call) {
			c.Return([]byte("secret"))
		},
	})
	tm.Op(Operation{
		Name: "fail",
		Handler: func(c *Call) {
			c.Fail("deliberate failure: %s", c.Data)
		},
	})
	tm.Op(Operation{
		Name: "boom",
		Handler: func(c *Call) {
			panic("kaboom")
		},
	})
	tm.Op(Operation{
		Name: "slow",
		Handler: func(c *Call) {
			time.Sleep(time.Duration(fromU64(c.Data)) * time.Millisecond)
			c.Return([]byte("done"))
		},
	})
	tm.Op(Operation{
		Name: "checkpoint",
		Handler: func(c *Call) {
			if err := c.Self().Checkpoint(); err != nil {
				c.Fail("checkpoint: %v", err)
			}
		},
	})
	tm.Op(Operation{
		Name: "crashme",
		Handler: func(c *Call) {
			go c.Self().Crash() // crash after the handler returns
		},
	})
	return tm
}

func mustRegister(t *testing.T, reg *Registry, tms ...*TypeManager) {
	t.Helper()
	for _, tm := range tms {
		if err := reg.Register(tm); err != nil {
			t.Fatal(err)
		}
	}
}

func mustInvoke(t *testing.T, k *Kernel, cap capability.Capability, op string, data []byte) Reply {
	t.Helper()
	rep, err := k.Invoke(cap, op, data, nil, nil)
	if err != nil {
		t.Fatalf("invoke %q: %v", op, err)
	}
	return rep
}

// ---- basic invocation ----

func TestCreateAndLocalInvoke(t *testing.T) {
	s := newSys(t, 1)
	mustRegister(t, s.reg, counterType(nil))
	cap, err := s.ks[1].Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := fromU64(mustInvoke(t, s.ks[1], cap, "inc", nil).Data); got != 1 {
		t.Errorf("inc = %d, want 1", got)
	}
	if got := fromU64(mustInvoke(t, s.ks[1], cap, "inc", nil).Data); got != 2 {
		t.Errorf("inc = %d, want 2", got)
	}
	if got := fromU64(mustInvoke(t, s.ks[1], cap, "get", nil).Data); got != 2 {
		t.Errorf("get = %d, want 2", got)
	}
	st := s.ks[1].Stats()
	if st.LocalInvokes != 3 || st.RemoteInvokes != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCreateUnknownType(t *testing.T) {
	s := newSys(t, 1)
	if _, err := s.ks[1].Create("nope", nil); !errors.Is(err, ErrNoSuchType) {
		t.Errorf("err = %v, want ErrNoSuchType", err)
	}
}

func TestRemoteInvoke(t *testing.T) {
	s := newSys(t, 1, 2, 3)
	mustRegister(t, s.reg, counterType(nil))
	cap, err := s.ks[2].Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Invoke from node 1; the kernel must locate the object on node 2.
	if got := fromU64(mustInvoke(t, s.ks[1], cap, "inc", nil).Data); got != 1 {
		t.Errorf("remote inc = %d", got)
	}
	if s.ks[1].Stats().RemoteInvokes == 0 {
		t.Error("no remote invocation recorded on the invoker")
	}
	if s.ks[2].Stats().ServedInvokes == 0 {
		t.Error("no served invocation recorded on the host")
	}
	// Hint cache: second invocation must not broadcast again.
	b0 := s.ks[1].Locator().Stats().Broadcasts
	mustInvoke(t, s.ks[1], cap, "inc", nil)
	if b1 := s.ks[1].Locator().Stats().Broadcasts; b1 != b0 {
		t.Errorf("second remote invoke broadcast again (%d -> %d)", b0, b1)
	}
}

func TestInvokeNullAndUnknown(t *testing.T) {
	s := newSys(t, 1)
	mustRegister(t, s.reg, counterType(nil))
	if _, err := s.ks[1].Invoke(capability.Capability{}, "get", nil, nil, nil); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("null cap: %v", err)
	}
	ghost := capability.New(s.ks[1].gen.Next(), rights.All)
	if _, err := s.ks[1].Invoke(ghost, "get", nil, nil, nil); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("unknown object: %v", err)
	}
}

func TestNoSuchOperation(t *testing.T) {
	s := newSys(t, 1)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	if _, err := s.ks[1].Invoke(cap, "frobnicate", nil, nil, nil); !errors.Is(err, ErrNoSuchOperation) {
		t.Errorf("err = %v, want ErrNoSuchOperation", err)
	}
}

func TestHandlerFailure(t *testing.T) {
	s := newSys(t, 1)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	_, err := s.ks[1].Invoke(cap, "fail", []byte("xyz"), nil, nil)
	if !errors.Is(err, ErrInvocationFailed) {
		t.Fatalf("err = %v, want ErrInvocationFailed", err)
	}
	if want := "deliberate failure: xyz"; !contains(err.Error(), want) {
		t.Errorf("err %q does not carry %q", err, want)
	}
}

func TestHandlerPanicIsolated(t *testing.T) {
	s := newSys(t, 1)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	_, err := s.ks[1].Invoke(cap, "boom", nil, nil, nil)
	if !errors.Is(err, ErrInvocationFailed) || !contains(err.Error(), "panicked") {
		t.Fatalf("err = %v", err)
	}
	// The object must survive its handler's panic.
	if got := fromU64(mustInvoke(t, s.ks[1], cap, "inc", nil).Data); got != 1 {
		t.Errorf("object dead after panic: inc = %d", got)
	}
}

func TestInvokeTimeout(t *testing.T) {
	s := newSys(t, 1)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	start := time.Now()
	_, err := s.ks[1].Invoke(cap, "slow", u64(2000), nil, &InvokeOptions{Timeout: 100 * time.Millisecond})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if el := time.Since(start); el > 600*time.Millisecond {
		t.Errorf("timeout returned after %v", el)
	}
}

func TestInvokeAsync(t *testing.T) {
	s := newSys(t, 1)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	p1 := s.ks[1].InvokeAsync(cap, "inc", nil, nil, nil)
	p2 := s.ks[1].InvokeAsync(cap, "inc", nil, nil, nil)
	r1, err1 := p1.Wait()
	r2, err2 := p2.Wait()
	if err1 != nil || err2 != nil {
		t.Fatalf("async errors: %v %v", err1, err2)
	}
	got := map[uint64]bool{fromU64(r1.Data): true, fromU64(r2.Data): true}
	if !got[1] || !got[2] {
		t.Errorf("async results = %v, want {1,2}", got)
	}
}

// ---- rights ----

func TestRightsEnforced(t *testing.T) {
	s := newSys(t, 1)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)

	noInvoke := cap.Restrict(rights.Grant)
	if _, err := s.ks[1].Invoke(noInvoke, "get", nil, nil, nil); !errors.Is(err, ErrRights) {
		t.Errorf("no-invoke capability: %v", err)
	}

	plain := cap.Restrict(rights.Invoke)
	if _, err := s.ks[1].Invoke(plain, "guarded", nil, nil, nil); !errors.Is(err, ErrRights) {
		t.Errorf("guarded op without type right: %v", err)
	}
	privileged := cap.Restrict(rights.Invoke | rights.Type(0))
	if rep, err := s.ks[1].Invoke(privileged, "guarded", nil, nil, nil); err != nil || string(rep.Data) != "secret" {
		t.Errorf("guarded op with right: %v %q", err, rep.Data)
	}
	// Ordinary ops still work with just Invoke.
	if _, err := s.ks[1].Invoke(plain, "get", nil, nil, nil); err != nil {
		t.Errorf("get with plain rights: %v", err)
	}
}

func TestRightsCheckedAtTargetForRemote(t *testing.T) {
	s := newSys(t, 1, 2)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[2].Create("counter", nil)
	weak := cap.Restrict(rights.Invoke)
	if _, err := s.ks[1].Invoke(weak, "guarded", nil, nil, nil); !errors.Is(err, ErrRights) {
		t.Errorf("remote guarded op: %v", err)
	}
}

// ---- invocation classes ----

// probeType records the maximum observed concurrency per class.
func probeType(name string, limits map[string]int, maxSeen *atomic.Int64) *TypeManager {
	tm := NewType(name)
	var cur atomic.Int64
	handler := func(c *Call) {
		n := cur.Add(1)
		for {
			m := maxSeen.Load()
			if n <= m || maxSeen.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(25 * time.Millisecond)
		cur.Add(-1)
		c.Return(nil)
	}
	for class, limit := range limits {
		if limit > 0 {
			tm.Limit(class, limit)
		}
		tm.Op(Operation{Name: "op-" + class, Class: class, Handler: handler})
	}
	return tm
}

func TestClassLimitOneSerializes(t *testing.T) {
	s := newSys(t, 1)
	var maxSeen atomic.Int64
	mustRegister(t, s.reg, probeType("probe1", map[string]int{"w": 1}, &maxSeen))
	cap, _ := s.ks[1].Create("probe1", nil)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.ks[1].Invoke(cap, "op-w", nil, nil, &InvokeOptions{Timeout: 5 * time.Second}); err != nil {
				t.Errorf("invoke: %v", err)
			}
		}()
	}
	wg.Wait()
	if m := maxSeen.Load(); m != 1 {
		t.Errorf("max concurrency = %d, want 1 (mutual exclusion)", m)
	}
}

func TestClassLimitN(t *testing.T) {
	s := newSys(t, 1)
	var maxSeen atomic.Int64
	mustRegister(t, s.reg, probeType("probe3", map[string]int{"w": 3}, &maxSeen))
	cap, _ := s.ks[1].Create("probe3", nil)
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.ks[1].Invoke(cap, "op-w", nil, nil, &InvokeOptions{Timeout: 5 * time.Second}); err != nil {
				t.Errorf("invoke: %v", err)
			}
		}()
	}
	wg.Wait()
	if m := maxSeen.Load(); m > 3 {
		t.Errorf("max concurrency = %d, want ≤ 3", m)
	}
	if m := maxSeen.Load(); m < 2 {
		t.Errorf("max concurrency = %d; limit 3 should allow real overlap", m)
	}
}

func TestUnlimitedClassOverlaps(t *testing.T) {
	s := newSys(t, 1)
	var maxSeen atomic.Int64
	mustRegister(t, s.reg, probeType("probeU", map[string]int{"u": 0}, &maxSeen))
	cap, _ := s.ks[1].Create("probeU", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = s.ks[1].Invoke(cap, "op-u", nil, nil, &InvokeOptions{Timeout: 5 * time.Second})
		}()
	}
	wg.Wait()
	if m := maxSeen.Load(); m < 2 {
		t.Errorf("max concurrency = %d, want overlap in an unlimited class", m)
	}
}

func TestDistinctClassesIndependent(t *testing.T) {
	// Two classes with limit 1 each must still overlap with each other.
	s := newSys(t, 1)
	tm := NewType("twoclass")
	var inA, inB, overlapped atomic.Bool
	mk := func(self *atomic.Bool, other *atomic.Bool) Handler {
		return func(c *Call) {
			self.Store(true)
			defer self.Store(false)
			for i := 0; i < 50; i++ {
				if other.Load() {
					overlapped.Store(true)
				}
				time.Sleep(time.Millisecond)
			}
			c.Return(nil)
		}
	}
	tm.Limit("a", 1).Limit("b", 1)
	tm.Op(Operation{Name: "opa", Class: "a", Handler: mk(&inA, &inB)})
	tm.Op(Operation{Name: "opb", Class: "b", Handler: mk(&inB, &inA)})
	mustRegister(t, s.reg, tm)
	cap, _ := s.ks[1].Create("twoclass", nil)
	var wg sync.WaitGroup
	for _, op := range []string{"opa", "opb"} {
		op := op
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = s.ks[1].Invoke(cap, op, nil, nil, &InvokeOptions{Timeout: 5 * time.Second})
		}()
	}
	wg.Wait()
	if !overlapped.Load() {
		t.Error("operations in distinct classes never overlapped")
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

func TestAccessors(t *testing.T) {
	s := newSys(t, 1)
	mustRegister(t, s.reg, counterType(nil))
	k := s.ks[1]
	if k.Node() != 1 || k.Name() != "node-1" {
		t.Errorf("Node/Name = %d %q", k.Node(), k.Name())
	}
	if k.Config().Node != 1 {
		t.Errorf("Config().Node = %d", k.Config().Node)
	}
	if k.Types() != s.reg {
		t.Error("Types() is not the shared registry")
	}
	if k.Closed() {
		t.Error("Closed() = true on a live kernel")
	}
	cap, _ := k.Create("counter", nil)
	obj, _ := k.Object(cap.ID())
	if obj.ID() != cap.ID() || obj.TypeName() != "counter" || obj.Node() != 1 || obj.IsReplica() {
		t.Errorf("object accessors: %v %q %d %v", obj.ID(), obj.TypeName(), obj.Node(), obj.IsReplica())
	}
	if st := k.DebugObjectState(cap.ID()); !contains(st, "active=true") {
		t.Errorf("DebugObjectState = %q", st)
	}
	_ = k.Close()
	if !k.Closed() {
		t.Error("Closed() = false after Close")
	}
}

func TestReliabilityStrings(t *testing.T) {
	for r, want := range map[Reliability]string{
		RelLocal: "local", RelRemote: "remote", RelReplicated: "replicated", Reliability(9): "reliability(9)",
	} {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", r, got, want)
		}
	}
}
