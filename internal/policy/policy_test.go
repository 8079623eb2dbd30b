package policy

import (
	"fmt"
	"testing"
	"time"

	"eden/internal/kernel"
	"eden/internal/rights"
	"eden/internal/segment"
	"eden/internal/store"
	"eden/internal/transport"
)

func testSys(t *testing.T, nodes ...uint32) (map[uint32]*kernel.Kernel, *kernel.Registry) {
	t.Helper()
	mesh := transport.NewMesh(11)
	t.Cleanup(func() { mesh.Close() })
	reg := kernel.NewRegistry()
	if err := RegisterType(reg); err != nil {
		t.Fatal(err)
	}
	// A subject type to place around.
	subj := kernel.NewType("subject")
	subj.Op(kernel.Operation{Name: "ping", Access: kernel.AccessRead, Handler: func(c *kernel.Call) { c.Return([]byte("pong")) }})
	if err := reg.Register(subj); err != nil {
		t.Fatal(err)
	}
	ks := make(map[uint32]*kernel.Kernel)
	for _, n := range nodes {
		ep, err := mesh.Attach(n)
		if err != nil {
			t.Fatal(err)
		}
		cfg := kernel.DefaultConfig(n, fmt.Sprintf("node-%d", n))
		cfg.DefaultTimeout = 2 * time.Second
		k := kernel.New(cfg, ep, reg, store.NewMemory())
		k.Locator().DefaultTimeout = 250 * time.Millisecond
		ks[n] = k
		t.Cleanup(func() { k.Close() })
	}
	return ks, reg
}

func TestPlaceBalances(t *testing.T) {
	ks, _ := testSys(t, 1, 2, 3)
	pol, err := Create(ks[1], 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint32]int{}
	for i := 0; i < 9; i++ {
		cap, _ := ks[1].Create("subject", nil)
		dest, err := Place(ks[1], pol, cap)
		if err != nil {
			t.Fatal(err)
		}
		counts[dest]++
	}
	for n, c := range counts {
		if c != 3 {
			t.Errorf("node %d got %d placements, want 3 (counts %v)", n, c, counts)
		}
	}
	loads, err := Loads(ks[1], pol)
	if err != nil {
		t.Fatal(err)
	}
	for n, l := range loads {
		if l != 3 {
			t.Errorf("load[%d] = %d", n, l)
		}
	}
}

func TestPlaceIdempotent(t *testing.T) {
	ks, _ := testSys(t, 1, 2)
	pol, _ := Create(ks[1], 1, 2)
	cap, _ := ks[1].Create("subject", nil)
	first, err := Place(ks[1], pol, cap)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Place(ks[1], pol, cap)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("re-placement moved the object: %d then %d", first, second)
	}
	loads, _ := Loads(ks[1], pol)
	var total uint32
	for _, l := range loads {
		total += l
	}
	if total != 1 {
		t.Errorf("double-counted placement: loads %v", loads)
	}
}

func TestReleaseFreesCapacity(t *testing.T) {
	ks, _ := testSys(t, 1, 2)
	pol, _ := Create(ks[1], 1, 2)
	capA, _ := ks[1].Create("subject", nil)
	destA, _ := Place(ks[1], pol, capA)
	if err := Release(ks[1], pol, capA); err != nil {
		t.Fatal(err)
	}
	loads, _ := Loads(ks[1], pol)
	if loads[destA] != 0 {
		t.Errorf("load not released: %v", loads)
	}
	// Releasing an unknown object is a no-op.
	ghost, _ := ks[1].Create("subject", nil)
	if err := Release(ks[1], pol, ghost); err != nil {
		t.Errorf("release unknown: %v", err)
	}
}

func TestEmptyPoolFails(t *testing.T) {
	ks, _ := testSys(t, 1)
	pol, err := Create(ks[1]) // no nodes
	if err != nil {
		t.Fatal(err)
	}
	cap, _ := ks[1].Create("subject", nil)
	if _, err := Place(ks[1], pol, cap); err == nil {
		t.Error("placement against empty pool succeeded")
	}
}

func TestAdminRightRequired(t *testing.T) {
	ks, _ := testSys(t, 1, 2)
	pol, _ := Create(ks[1], 1)
	weak := pol.Restrict(rights.Invoke)
	if err := SetNodes(ks[1], weak, 1, 2); err == nil {
		t.Error("set-nodes without AdminRight succeeded")
	}
	// Placement needs only Invoke.
	cap, _ := ks[1].Create("subject", nil)
	if _, err := Place(ks[1], weak, cap); err != nil {
		t.Errorf("place with invoke-only capability: %v", err)
	}
}

func TestPlaceAndMove(t *testing.T) {
	ks, _ := testSys(t, 1, 2, 3)
	pol, _ := Create(ks[1], 2, 3) // pool excludes the creating node
	var dests []uint32
	for i := 0; i < 4; i++ {
		cap, err := ks[1].Create("subject", nil)
		if err != nil {
			t.Fatal(err)
		}
		dest, err := PlaceAndMove(ks[1], pol, cap)
		if err != nil {
			t.Fatal(err)
		}
		dests = append(dests, dest)
		// The object serves from its assigned node.
		if rep, err := ks[1].Invoke(cap, "ping", nil, nil, nil); err != nil || string(rep.Data) != "pong" {
			t.Fatalf("ping after placement: %v %q", err, rep.Data)
		}
	}
	if len(ks[2].ActiveObjects()) != 2 || len(ks[3].ActiveObjects()) != 2 {
		t.Errorf("placement skew: node2=%d node3=%d (dests %v)",
			len(ks[2].ActiveObjects()), len(ks[3].ActiveObjects()), dests)
	}
}

func TestSetNodesPreservesLoads(t *testing.T) {
	ks, _ := testSys(t, 1, 2, 3)
	pol, _ := Create(ks[1], 1, 2)
	capA, _ := ks[1].Create("subject", nil)
	destA, _ := Place(ks[1], pol, capA)
	// Grow the pool; existing load on destA must be remembered.
	if err := SetNodes(ks[1], pol, 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	loads, _ := Loads(ks[1], pol)
	if loads[destA] != 1 {
		t.Errorf("load lost across set-nodes: %v", loads)
	}
	if loads[3] != 0 {
		t.Errorf("new node has phantom load: %v", loads)
	}
}

func TestPolicySurvivesPassivation(t *testing.T) {
	ks, _ := testSys(t, 1, 2)
	pol, _ := Create(ks[1], 1, 2)
	cap, _ := ks[1].Create("subject", nil)
	if _, err := Place(ks[1], pol, cap); err != nil {
		t.Fatal(err)
	}
	obj, err := ks[1].Object(pol.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Passivate(); err != nil {
		t.Fatal(err)
	}
	// Assignments survive; re-placement is still idempotent.
	loads, err := Loads(ks[1], pol)
	if err != nil {
		t.Fatal(err)
	}
	var total uint32
	for _, l := range loads {
		total += l
	}
	if total != 1 {
		t.Errorf("loads after passivation: %v", loads)
	}
}

func TestPoolCodec(t *testing.T) {
	r := segment.New()
	in := []poolEntry{{node: 7, load: 3}, {node: 9, load: 0}}
	writePool(r, in)
	out := readPool(r)
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Errorf("pool round trip: %v -> %v", in, out)
	}
	empty := segment.New()
	if got := readPool(empty); got != nil {
		t.Errorf("readPool on empty rep = %v", got)
	}
}
