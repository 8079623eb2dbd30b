package editor

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"eden/internal/capability"
	"eden/internal/kernel"
	"eden/internal/segment"
	"eden/internal/store"
	"eden/internal/transport"
)

func testSys(t *testing.T, nodes ...uint32) (map[uint32]*kernel.Kernel, *kernel.Registry) {
	t.Helper()
	mesh := transport.NewMesh(13)
	t.Cleanup(func() { mesh.Close() })
	reg := kernel.NewRegistry()
	if err := RegisterBaseType(reg); err != nil {
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

// noteType extends the displayable base, inheriting its display.
func noteType(name string) *kernel.TypeManager {
	tm := kernel.NewType(name)
	tm.Extends = BaseTypeName
	tm.Init = func(o *kernel.Object) error {
		return o.Update(func(r *segment.Representation) error {
			r.SetData("text", []byte("empty note"))
			return nil
		})
	}
	tm.Op(kernel.Operation{
		Name: "set-text",
		Handler: func(c *kernel.Call) {
			_ = c.Self().Update(func(r *segment.Representation) error {
				r.SetData("text", c.Data)
				return nil
			})
			c.Return(c.Data)
		},
	})
	return tm
}

func TestInheritedDisplay(t *testing.T) {
	ks, reg := testSys(t, 1)
	if err := reg.Register(noteType("note")); err != nil {
		t.Fatal(err)
	}
	cap, err := ks[1].Create("note", nil)
	if err != nil {
		t.Fatal(err)
	}
	out := Render(ks[1], cap)
	// The inherited default display renders the anatomy: name, type,
	// segments.
	for _, want := range []string{"object " + cap.ID().String(), "type note", "segment text data"} {
		if !strings.Contains(out, want) {
			t.Errorf("display missing %q:\n%s", want, out)
		}
	}
}

func TestOverriddenDisplay(t *testing.T) {
	ks, reg := testSys(t, 1)
	tm := noteType("fancy-note")
	tm.Op(kernel.Operation{
		Name:   DisplayOp,
		Access: kernel.AccessRead,
		Handler: func(c *kernel.Call) {
			c.Self().View(func(r *segment.Representation) {
				text, _ := r.Data("text")
				c.Return([]byte("NOTE: " + string(text)))
			})
		},
	})
	if err := reg.Register(tm); err != nil {
		t.Fatal(err)
	}
	cap, _ := ks[1].Create("fancy-note", nil)
	if got := Render(ks[1], cap); got != "NOTE: empty note" {
		t.Errorf("overridden display = %q", got)
	}
}

func TestRenderRemoteObject(t *testing.T) {
	ks, reg := testSys(t, 1, 2)
	if err := reg.Register(noteType("note")); err != nil {
		t.Fatal(err)
	}
	cap, _ := ks[1].Create("note", nil)
	// The editor on node 2 renders node 1's object transparently.
	out := Render(ks[2], cap)
	if !strings.Contains(out, "type note") {
		t.Errorf("remote render = %q", out)
	}
}

func TestRenderUndisplayableObject(t *testing.T) {
	ks, reg := testSys(t, 1)
	plain := kernel.NewType("plain")
	plain.Op(kernel.Operation{Name: "noop", Handler: func(c *kernel.Call) {}})
	if err := reg.Register(plain); err != nil {
		t.Fatal(err)
	}
	cap, _ := ks[1].Create("plain", nil)
	out := Render(ks[1], cap)
	if !strings.Contains(out, "no visual representation") {
		t.Errorf("undisplayable render = %q", out)
	}
}

func TestEditIsInvocation(t *testing.T) {
	ks, reg := testSys(t, 1)
	if err := reg.Register(noteType("note")); err != nil {
		t.Fatal(err)
	}
	cap, _ := ks[1].Create("note", nil)
	out, err := Edit(ks[1], cap, "set-text", "edited through the editor")
	if err != nil {
		t.Fatal(err)
	}
	if out != "edited through the editor" {
		t.Errorf("edit reply = %q", out)
	}
	if _, err := Edit(ks[1], cap, "no-such-edit", ""); err == nil {
		t.Error("edit with unknown operation succeeded")
	}
}

func TestRenderGraphFollowsCapabilities(t *testing.T) {
	ks, reg := testSys(t, 1)
	if err := reg.Register(noteType("note")); err != nil {
		t.Fatal(err)
	}
	folder := kernel.NewType("folder")
	folder.Extends = BaseTypeName
	folder.Op(kernel.Operation{
		Name: "add",
		Handler: func(c *kernel.Call) {
			_ = c.Self().Update(func(r *segment.Representation) error {
				l, _ := r.Caps("entries")
				r.SetCaps("entries", append(l, c.Caps...))
				return nil
			})
		},
	})
	if err := reg.Register(folder); err != nil {
		t.Fatal(err)
	}

	dir, _ := ks[1].Create("folder", nil)
	a, _ := ks[1].Create("note", nil)
	b, _ := ks[1].Create("note", nil)
	if _, err := ks[1].Invoke(dir, "add", nil, capability.List{a, b}, nil); err != nil {
		t.Fatal(err)
	}

	g := RenderGraph(ks[1], dir, 2)
	if len(g.Children) != 2 {
		t.Fatalf("graph children = %d, want 2", len(g.Children))
	}
	formatted := Format(g)
	if strings.Count(formatted, "type note") != 2 {
		t.Errorf("formatted graph missing children:\n%s", formatted)
	}
	// Children are indented beneath the parent.
	if !strings.Contains(formatted, "\n  object ") {
		t.Errorf("no indentation in graph:\n%s", formatted)
	}
}

func TestRenderGraphCutsCycles(t *testing.T) {
	ks, reg := testSys(t, 1)
	linker := kernel.NewType("linker")
	linker.Extends = BaseTypeName
	linker.Op(kernel.Operation{
		Name: "link",
		Handler: func(c *kernel.Call) {
			_ = c.Self().Update(func(r *segment.Representation) error {
				r.SetCaps("peer", c.Caps)
				return nil
			})
		},
	})
	if err := reg.Register(linker); err != nil {
		t.Fatal(err)
	}
	a, _ := ks[1].Create("linker", nil)
	b, _ := ks[1].Create("linker", nil)
	if _, err := ks[1].Invoke(a, "link", nil, capability.List{b}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ks[1].Invoke(b, "link", nil, capability.List{a}, nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan *Node, 1)
	go func() { done <- RenderGraph(ks[1], a, 10) }()
	select {
	case g := <-done:
		if g == nil {
			t.Fatal("nil graph")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RenderGraph looped on a cyclic object structure")
	}
}

func TestRenderGraphDepthZero(t *testing.T) {
	ks, reg := testSys(t, 1)
	if err := reg.Register(noteType("note")); err != nil {
		t.Fatal(err)
	}
	cap, _ := ks[1].Create("note", nil)
	g := RenderGraph(ks[1], cap, 0)
	if len(g.Children) != 0 {
		t.Errorf("depth-0 graph has children")
	}
}
