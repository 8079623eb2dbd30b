// Package policy implements location policy objects: "some objects may
// have the ability to make location decisions for other objects in the
// system; for example, there may be a policy object responsible for
// the location of objects in a particular subsystem" (§4.3).
//
// A placement object tracks a pool of nodes and the objects it has
// assigned to each, and answers "where should this object live?" with
// the least-loaded node. Because the policy is itself an Eden object,
// its decisions are invocations: any node can consult it, it can be
// checkpointed, moved, and protected by rights like everything else.
// The client helper PlaceAndMove consults the policy and then performs
// the kernel move on the subject object.
package policy

import (
	"encoding/binary"
	"errors"
	"fmt"

	"eden/internal/capability"
	"eden/internal/edenid"
	"eden/internal/kernel"
	"eden/internal/rights"
	"eden/internal/segment"
)

// TypeName is the placement type's registered name.
const TypeName = "eden.placement"

// AdminRight is required to change the node pool; placement requests
// need only rights.Invoke.
var AdminRight = rights.Type(2)

// ErrNoNodes reports a placement request against an empty pool.
var ErrNoNodes = errors.New("policy: no nodes in pool")

// Representation:
//
//	data "pool"          count(4) then node(4) load(4) per entry
//	data "assign:<id>"   node(4) for each placed object
const segPool = "pool"

type poolEntry struct {
	node uint32
	load uint32
}

func readPool(r *segment.Representation) []poolEntry {
	b, err := r.Data(segPool)
	if err != nil || len(b) < 4 {
		return nil
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if len(b) < n*8 {
		return nil
	}
	out := make([]poolEntry, n)
	for i := range out {
		out[i].node = binary.BigEndian.Uint32(b[i*8:])
		out[i].load = binary.BigEndian.Uint32(b[i*8+4:])
	}
	return out
}

func writePool(r *segment.Representation, pool []poolEntry) {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(pool)))
	for _, e := range pool {
		b = binary.BigEndian.AppendUint32(b, e.node)
		b = binary.BigEndian.AppendUint32(b, e.load)
	}
	r.SetData(segPool, b)
}

func assignSeg(id edenid.ID) string { return "assign:" + id.String() }

// RegisterType installs the placement type manager.
func RegisterType(reg *kernel.Registry) error {
	tm := kernel.NewType(TypeName)
	tm.Limit("decide", 1) // placement decisions are serialized
	tm.Init = func(o *kernel.Object) error {
		return o.Update(func(r *segment.Representation) error {
			writePool(r, nil)
			return nil
		})
	}

	tm.Op(kernel.Operation{
		Name:   "set-nodes",
		Class:  "decide",
		Rights: AdminRight,
		Handler: func(c *kernel.Call) {
			if len(c.Data)%4 != 0 || len(c.Data) == 0 {
				c.Fail("set-nodes: want a non-empty list of node numbers")
				return
			}
			pool := make([]poolEntry, 0, len(c.Data)/4)
			for i := 0; i < len(c.Data); i += 4 {
				pool = append(pool, poolEntry{node: binary.BigEndian.Uint32(c.Data[i:])})
			}
			_ = c.Self().Update(func(r *segment.Representation) error {
				// Preserve loads for nodes that remain in the pool.
				old := readPool(r)
				for i := range pool {
					for _, e := range old {
						if e.node == pool[i].node {
							pool[i].load = e.load
						}
					}
				}
				writePool(r, pool)
				return nil
			})
		},
	})

	tm.Op(kernel.Operation{
		Name:  "place",
		Class: "decide",
		Handler: func(c *kernel.Call) {
			id, rest, err := edenid.Decode(c.Data)
			if err != nil || len(rest) != 0 {
				c.Fail("place: bad object id: %v", err)
				return
			}
			var chosen uint32
			uerr := c.Self().Update(func(r *segment.Representation) error {
				pool := readPool(r)
				if len(pool) == 0 {
					return ErrNoNodes
				}
				// Re-placing a known object keeps its assignment
				// stable (idempotent placement).
				if b, err := r.Data(assignSeg(id)); err == nil && len(b) == 4 {
					chosen = binary.BigEndian.Uint32(b)
					return nil
				}
				best := 0
				for i, e := range pool {
					if e.load < pool[best].load {
						best = i
					}
				}
				pool[best].load++
				chosen = pool[best].node
				writePool(r, pool)
				r.SetData(assignSeg(id), binary.BigEndian.AppendUint32(nil, chosen))
				return nil
			})
			if uerr != nil {
				c.Fail("%v", uerr)
				return
			}
			c.Return(binary.BigEndian.AppendUint32(nil, chosen))
		},
	})

	tm.Op(kernel.Operation{
		Name:  "release",
		Class: "decide",
		Handler: func(c *kernel.Call) {
			id, rest, err := edenid.Decode(c.Data)
			if err != nil || len(rest) != 0 {
				c.Fail("release: bad object id: %v", err)
				return
			}
			_ = c.Self().Update(func(r *segment.Representation) error {
				b, err := r.Data(assignSeg(id))
				if err != nil || len(b) != 4 {
					return nil // unknown object: no-op
				}
				node := binary.BigEndian.Uint32(b)
				pool := readPool(r)
				for i := range pool {
					if pool[i].node == node && pool[i].load > 0 {
						pool[i].load--
					}
				}
				writePool(r, pool)
				r.Delete(assignSeg(id))
				return nil
			})
		},
	})

	tm.Op(kernel.Operation{
		Name:   "loads",
		Access: kernel.AccessRead,
		Handler: func(c *kernel.Call) {
			c.Self().View(func(r *segment.Representation) {
				pool := readPool(r)
				b := binary.BigEndian.AppendUint32(nil, uint32(len(pool)))
				for _, e := range pool {
					b = binary.BigEndian.AppendUint32(b, e.node)
					b = binary.BigEndian.AppendUint32(b, e.load)
				}
				c.Return(b)
			})
		},
	})
	return reg.Register(tm)
}

// invokeOpts propagates the invoking node's configured invocation
// budget to the policy's own invocations.
func invokeOpts(k *kernel.Kernel) *kernel.InvokeOptions {
	return &kernel.InvokeOptions{Timeout: k.Config().DefaultTimeout}
}

// Create creates a placement object on the kernel's node with the
// given node pool.
func Create(k *kernel.Kernel, nodes ...uint32) (capability.Capability, error) {
	cap, err := k.Create(TypeName, nil)
	if err != nil {
		return capability.Capability{}, err
	}
	if len(nodes) > 0 {
		if err := SetNodes(k, cap, nodes...); err != nil {
			return capability.Capability{}, err
		}
	}
	return cap, nil
}

// SetNodes replaces the policy's node pool.
func SetNodes(k *kernel.Kernel, policy capability.Capability, nodes ...uint32) error {
	var b []byte
	for _, n := range nodes {
		b = binary.BigEndian.AppendUint32(b, n)
	}
	_, err := k.Invoke(policy, "set-nodes", b, nil, invokeOpts(k))
	return err
}

// Place asks the policy where the subject object should live.
func Place(k *kernel.Kernel, policy capability.Capability, subject capability.Capability) (uint32, error) {
	rep, err := k.Invoke(policy, "place", subject.ID().Encode(nil), nil, invokeOpts(k))
	if err != nil {
		return 0, err
	}
	if len(rep.Data) != 4 {
		return 0, fmt.Errorf("policy: malformed place reply")
	}
	return binary.BigEndian.Uint32(rep.Data), nil
}

// Release tells the policy the subject object no longer needs placement.
func Release(k *kernel.Kernel, policy capability.Capability, subject capability.Capability) error {
	_, err := k.Invoke(policy, "release", subject.ID().Encode(nil), nil, invokeOpts(k))
	return err
}

// Loads returns the policy's per-node assignment counts.
func Loads(k *kernel.Kernel, policy capability.Capability) (map[uint32]uint32, error) {
	rep, err := k.Invoke(policy, "loads", nil, nil, invokeOpts(k))
	if err != nil {
		return nil, err
	}
	if len(rep.Data) < 4 {
		return nil, fmt.Errorf("policy: malformed loads reply")
	}
	n := int(binary.BigEndian.Uint32(rep.Data))
	b := rep.Data[4:]
	if len(b) != n*8 {
		return nil, fmt.Errorf("policy: malformed loads reply")
	}
	out := make(map[uint32]uint32, n)
	for i := 0; i < n; i++ {
		out[binary.BigEndian.Uint32(b[i*8:])] = binary.BigEndian.Uint32(b[i*8+4:])
	}
	return out, nil
}

// PlaceAndMove consults the policy for the object's node and moves the
// object there if it is not there already. The subject object must be
// homed on k's node (the usual pattern: create locally, then let the
// subsystem's policy distribute).
func PlaceAndMove(k *kernel.Kernel, policy capability.Capability, subject capability.Capability) (uint32, error) {
	dest, err := Place(k, policy, subject)
	if err != nil {
		return 0, err
	}
	obj, err := k.Object(subject.ID())
	if err != nil {
		return 0, err
	}
	if dest == k.Node() {
		return dest, nil
	}
	if err := <-obj.Move(dest); err != nil {
		return 0, fmt.Errorf("policy: moving %v to node %d: %w", subject.ID(), dest, err)
	}
	return dest, nil
}
