// Package editor implements the substrate of the Eden object editor
// described in §5: "a user environment in which all objects (such as
// directories, source programs, queues, etc.) have a syntactically
// structured visual representation, and in which all human
// interactions with objects are treated as editing operations applied
// to these visual representations."
//
// The bitmap UI itself is out of this reproduction's scope (see
// DESIGN.md §2); what this package builds is the architecture
// underneath it:
//
//   - a *display convention*: any type may define a read-only
//     "display" operation returning a structured textual rendering of
//     the object;
//   - a *base displayable type* whose default display renders the
//     object's anatomy, so that — exactly as §5 suggests for the type
//     hierarchy — "display code for use with the object editor" is an
//     attribute subtypes inherit and may override;
//   - a renderer that resolves an object's visual representation
//     through an ordinary invocation (location-transparent, like every
//     interaction in Eden), and can expand the object graph one level
//     through its capability segments;
//   - an *edit dispatcher* that maps the editor's "editing operations"
//     onto invocations, completing the paradigm: looking is a display
//     invocation, touching is a mutating invocation.
package editor

import (
	"fmt"
	"strings"

	"eden/internal/capability"
	"eden/internal/kernel"
	"eden/internal/segment"
)

// DisplayOp is the conventional operation name the editor invokes to
// obtain an object's visual representation.
const DisplayOp = "display"

// BaseTypeName is the displayable base type; subtypes that extend it
// inherit its default display and may override it.
const BaseTypeName = "eden.displayable"

// RegisterBaseType installs the displayable base type: a type with no
// state of its own whose "display" renders the invoked object's
// anatomy. Any type that sets Extends to BaseTypeName (directly or
// transitively) gets a visual representation for free.
func RegisterBaseType(reg *kernel.Registry) error {
	tm := kernel.NewType(BaseTypeName)
	tm.Op(kernel.Operation{
		Name:   DisplayOp,
		Access: kernel.AccessRead,
		Handler: func(c *kernel.Call) {
			c.Return([]byte(renderAnatomy(c.Self())))
		},
	})
	return reg.Register(tm)
}

// renderAnatomy is the default visual representation: the object's
// four parts, structured line by line so an editor can parse it.
func renderAnatomy(o *kernel.Object) string {
	a := o.Describe()
	var b strings.Builder
	fmt.Fprintf(&b, "object %v\n", a.Name)
	fmt.Fprintf(&b, "type %s\n", a.TypeName)
	for _, s := range a.Segments {
		fmt.Fprintf(&b, "segment %s %s %d\n", s.Name, s.Kind, s.Len)
	}
	fmt.Fprintf(&b, "version %d frozen %v\n", a.Version, a.Frozen)
	return strings.TrimRight(b.String(), "\n")
}

// Render obtains the object's visual representation by invoking its
// display operation — from anywhere in the system, like any other
// interaction. Objects whose type defines no display (and does not
// extend the base type) render as an opaque line rather than an error:
// the editor must be able to show *everything*.
func Render(k *kernel.Kernel, target capability.Capability) string {
	rep, err := k.Invoke(target, DisplayOp, nil, nil, &kernel.InvokeOptions{
		Timeout:      k.Config().DefaultTimeout,
		AllowReplica: true,
	})
	if err != nil {
		return fmt.Sprintf("object %v (no visual representation: %v)", target.ID(), err)
	}
	return string(rep.Data)
}

// Node is one vertex of a rendered object graph.
type Node struct {
	// Target is the object rendered.
	Target capability.Capability
	// Display is its visual representation.
	Display string
	// Children are the objects referenced from its capability
	// segments, rendered when the depth budget allows.
	Children []*Node
}

// RenderGraph renders the object and, up to depth levels, the objects
// its capability segments reference — the "structures of objects" the
// editor navigates. Cycles are cut by the visited set.
func RenderGraph(k *kernel.Kernel, target capability.Capability, depth int) *Node {
	return renderGraph(k, target, depth, map[string]bool{})
}

func renderGraph(k *kernel.Kernel, target capability.Capability, depth int, seen map[string]bool) *Node {
	n := &Node{Target: target, Display: Render(k, target)}
	if depth <= 0 || seen[target.ID().String()] {
		return n
	}
	seen[target.ID().String()] = true
	// Children come from the object's capability segments, reachable
	// only if the object is homed on this node (the editor runs next
	// to the user; remote structure is expanded via display text).
	obj, err := k.Object(target.ID())
	if err != nil {
		return n
	}
	for _, child := range objectReferences(obj) {
		n.Children = append(n.Children, renderGraph(k, child, depth-1, seen))
	}
	return n
}

// objectReferences lists the capabilities in the object's capability
// segments, in deterministic order.
func objectReferences(o *kernel.Object) capability.List {
	var out capability.List
	o.View(func(r *segment.Representation) {
		out = r.Capabilities()
	})
	return out
}

// Format renders a graph as an indented tree.
func Format(n *Node) string {
	var b strings.Builder
	format(&b, n, 0)
	return strings.TrimRight(b.String(), "\n")
}

func format(b *strings.Builder, n *Node, indent int) {
	pad := strings.Repeat("  ", indent)
	for _, line := range strings.Split(n.Display, "\n") {
		fmt.Fprintf(b, "%s%s\n", pad, line)
	}
	for _, c := range n.Children {
		format(b, c, indent+1)
	}
}

// Edit applies one editing operation: in the editing paradigm every
// interaction with an object is an invocation, so an edit is the
// operation name plus its textual argument. The object's reply (its
// new visual representation, or operation output) is returned.
func Edit(k *kernel.Kernel, target capability.Capability, operation string, argument string) (string, error) {
	rep, err := k.Invoke(target, operation, []byte(argument), nil,
		&kernel.InvokeOptions{Timeout: k.Config().DefaultTimeout})
	if err != nil {
		return "", err
	}
	return string(rep.Data), nil
}
