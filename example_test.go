package eden_test

import (
	"fmt"
	"log"

	"eden"
)

// Example assembles a two-node system, defines a type, and invokes an
// object location-transparently from the node that does not host it.
func Example() {
	sys, err := eden.NewSystem(eden.SystemConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	home, _ := sys.AddNode("home")
	away, _ := sys.AddNode("away")

	greeter := eden.NewType("greeter")
	greeter.Op(eden.Operation{
		Name:   "greet",
		Access: eden.AccessRead,
		Handler: func(c *eden.Call) {
			c.Return([]byte("hello, " + string(c.Data)))
		},
	})
	if err := sys.RegisterType(greeter); err != nil {
		log.Fatal(err)
	}

	cap, _ := home.CreateObject("greeter")
	rep, err := away.Invoke(cap, "greet", []byte("eden"), nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(rep.Data))
	// Output: hello, eden
}

// ExampleObject_Checkpoint shows the active/passive lifecycle: state
// checkpointed before a crash survives; state after it does not.
func ExampleObject_Checkpoint() {
	sys, _ := eden.NewSystem(eden.SystemConfig{})
	defer sys.Close()
	node, _ := sys.AddNode("solo")

	register := eden.NewType("register")
	register.Op(eden.Operation{Name: "set", Handler: func(c *eden.Call) {
		_ = c.Self().Update(func(r *eden.Representation) error {
			r.SetData("value", c.Data)
			return nil
		})
	}})
	register.Op(eden.Operation{Name: "get", Access: eden.AccessRead, Handler: func(c *eden.Call) {
		c.Self().View(func(r *eden.Representation) {
			v, _ := r.Data("value")
			c.Return(v)
		})
	}})
	_ = sys.RegisterType(register)

	cap, _ := node.CreateObject("register")
	_, _ = node.Invoke(cap, "set", []byte("durable"), nil, nil)
	obj, _ := node.Object(cap)
	_ = obj.Checkpoint()
	_, _ = node.Invoke(cap, "set", []byte("volatile"), nil, nil)

	obj.Crash() // destroys active state; next invocation reincarnates

	rep, _ := node.Invoke(cap, "get", nil, nil, nil)
	fmt.Println(string(rep.Data))
	// Output: durable
}

// ExampleCapability_Restrict shows rights narrowing: a capability can
// only ever lose rights, never gain them.
func ExampleCapability_Restrict() {
	sys, _ := eden.NewSystem(eden.SystemConfig{})
	defer sys.Close()
	node, _ := sys.AddNode("solo")

	vault := eden.NewType("vault")
	vault.Op(eden.Operation{
		Name:   "open",
		Rights: eden.TypeRight(0),
		Handler: func(c *eden.Call) {
			c.Return([]byte("opened"))
		},
	})
	_ = sys.RegisterType(vault)

	full, _ := node.CreateObject("vault")
	weak := full.Restrict(eden.RightInvoke) // drops TypeRight(0)

	if _, err := node.Invoke(weak, "open", nil, nil, nil); err != nil {
		fmt.Println("restricted capability refused")
	}
	if rep, err := node.Invoke(full, "open", nil, nil, nil); err == nil {
		fmt.Println(string(rep.Data))
	}
	// Output:
	// restricted capability refused
	// opened
}
