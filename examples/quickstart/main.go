// Quickstart: a three-node Eden system exercising the kernel's
// primitives end to end — type definition, object creation,
// location-independent invocation, capability restriction, checkpoint,
// crash and reincarnation, freeze and replication, and object
// mobility.
package main

import (
	"time"

	"encoding/binary"
	"fmt"
	"log"

	"eden"
)

// opts gives every invocation an explicit five-second budget, so no
// call can hang the walkthrough silently.
func opts() *eden.InvokeOptions { return &eden.InvokeOptions{Timeout: 5 * time.Second} }

// u64 round-trips counters through invocation payloads.
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

// counterType defines a persistent counter: one "write" invocation
// class with limit 1 (mutual exclusion), a read-only "get", and a
// guarded "reset" demanding a type-defined right.
func counterType() *eden.TypeManager {
	tm := eden.NewType("counter")
	tm.Init = func(o *eden.Object) error {
		return o.Update(func(r *eden.Representation) error {
			r.SetData("n", u64(0))
			return nil
		})
	}
	tm.Limit("write", 1)
	tm.Op(eden.Operation{
		Name:  "inc",
		Class: "write",
		Handler: func(c *eden.Call) {
			var out uint64
			_ = c.Self().Update(func(r *eden.Representation) error {
				b, _ := r.Data("n")
				out = fromU64(b) + 1
				r.SetData("n", u64(out))
				return nil
			})
			c.Return(u64(out))
		},
	})
	tm.Op(eden.Operation{
		Name:   "get",
		Access: eden.AccessRead,
		Handler: func(c *eden.Call) {
			c.Self().View(func(r *eden.Representation) {
				b, _ := r.Data("n")
				c.Return(b)
			})
		},
	})
	tm.Op(eden.Operation{
		Name:   "reset",
		Class:  "write",
		Rights: eden.TypeRight(0),
		Handler: func(c *eden.Call) {
			_ = c.Self().Update(func(r *eden.Representation) error {
				r.SetData("n", u64(0))
				return nil
			})
		},
	})
	return tm
}

func main() {
	sys, err := eden.NewSystem(eden.SystemConfig{Telemetry: true})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// Three office node machines on one (simulated) Ethernet.
	alpha, _ := sys.AddNode("alpha")
	beta, _ := sys.AddNode("beta")
	gamma, _ := sys.AddNode("gamma")
	fmt.Println("== Eden quickstart: 3 nodes on one network ==")

	if err := sys.RegisterType(counterType()); err != nil {
		log.Fatal(err)
	}

	// Create an object on alpha; the capability is location-free.
	cap, err := alpha.CreateObject("counter")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("created counter %v on %s\n", cap.ID(), alpha.Name())

	// Location-independent invocation: beta and gamma don't know (or
	// care) where the counter lives.
	for _, n := range []*eden.Node{alpha, beta, gamma} {
		rep, err := n.Invoke(cap, "inc", nil, nil, opts())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s invoked inc -> %d\n", n.Name(), fromU64(rep.Data))
	}

	// Capability restriction: a read-only capability cannot reset.
	readOnly := cap.Restrict(eden.RightInvoke)
	if _, err := beta.Invoke(readOnly, "reset", nil, nil, opts()); err != nil {
		fmt.Printf("reset with read-only capability correctly denied: %v\n", err)
	}

	// Checkpoint, crash, reincarnate: the object survives with its
	// checkpointed state; post-checkpoint work is lost by design.
	obj, _ := alpha.Object(cap)
	if err := obj.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	if _, err := alpha.Invoke(cap, "inc", nil, nil, opts()); err != nil { // will be lost
		log.Fatal(err)
	}
	obj.Crash()
	rep, err := gamma.Invoke(cap, "get", nil, nil, opts()) // reincarnates
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after crash+reincarnation the counter reads %d (checkpointed value)\n", fromU64(rep.Data))

	// Freeze and replicate: reads are then served from local caches.
	obj, _ = alpha.Object(cap)
	if err := obj.Freeze(); err != nil {
		log.Fatal(err)
	}
	if err := obj.Replicate(beta.Num(), gamma.Num()); err != nil {
		log.Fatal(err)
	}
	rep, err = gamma.Invoke(cap, "get", nil, nil, &eden.InvokeOptions{Timeout: 5 * time.Second, AllowReplica: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gamma read %d from its local frozen replica (no network hop)\n", fromU64(rep.Data))

	// Mobility: a second (mutable) counter moves from alpha to beta;
	// invocations keep working through the forwarding pointer.
	cap2, _ := alpha.CreateObject("counter")
	if _, err := gamma.Invoke(cap2, "inc", nil, nil, opts()); err != nil {
		log.Fatal(err)
	}
	obj2, _ := alpha.Object(cap2)
	if err := <-obj2.Move(beta.Num()); err != nil {
		log.Fatal(err)
	}
	rep, err = gamma.Invoke(cap2, "inc", nil, nil, opts())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("second counter moved to %s; gamma's invocation followed it -> %d\n",
		beta.Name(), fromU64(rep.Data))

	st := sys.NetworkStats()
	fmt.Printf("network carried %d frames, %d bytes (dropped %d)\n", st.Frames, st.Bytes, st.Dropped)

	// Telemetry: each node kept metrics and invocation traces while the
	// walkthrough ran. Summarize gamma's view — it invoked objects on
	// every other node.
	snap := gamma.Telemetry().Snapshot()
	fmt.Printf("gamma telemetry: %d local / %d remote invocations",
		snap.Counters["kernel.invoke.local"], snap.Counters["kernel.invoke.remote"])
	if h, ok := snap.Histograms["kernel.invoke.remote.latency"]; ok {
		fmt.Printf(", remote p95 %v", h.Quantile(0.95))
	}
	fmt.Println()
	fmt.Println("== done ==")
}
