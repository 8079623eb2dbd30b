// Command edenfigs regenerates the four structural figures of "The
// Architecture of the Eden System" from a LIVE system: it boots the
// paper's planned prototype configuration (five nodes, one configured
// as a file server, on one network), creates real objects, and renders
// what actually exists — topology, node machine internals, software
// layering, and object anatomy.
//
// Usage:
//
//	edenfigs           # all four figures
//	edenfigs -fig 2    # just Figure 2
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"eden"
	"eden/internal/efs"
	"eden/internal/naming"
)

func main() {
	fig := flag.Int("fig", 0, "figure to render (1-4, 0 = all)")
	flag.Parse()

	sys, nodes, demoCap := buildPrototype()
	defer sys.Close()

	figs := map[int]func(){
		1: func() { figure1(sys, nodes) },
		2: func() { figure2(nodes[0]) },
		3: func() { figure3(sys) },
		4: func() { figure4(nodes[0], demoCap) },
	}
	if *fig != 0 {
		f, ok := figs[*fig]
		if !ok {
			fmt.Fprintf(os.Stderr, "no figure %d (have 1-4)\n", *fig)
			os.Exit(2)
		}
		f()
		return
	}
	for i := 1; i <= 4; i++ {
		figs[i]()
		fmt.Println()
	}
}

// buildPrototype boots the late-1981 plan: "five fully-configured
// prototype node machines in operation, one of which will be
// configured with a 300 megabyte disk to act as a file server",
// interconnected by an Ethernet.
func buildPrototype() (*eden.System, []*eden.Node, eden.Capability) {
	sys, err := eden.NewSystem(eden.SystemConfig{})
	if err != nil {
		log.Fatal(err)
	}
	var nodes []*eden.Node
	for _, name := range []string{"node-1", "node-2", "node-3", "node-4", "file-server"} {
		n, err := sys.AddNode(name)
		if err != nil {
			log.Fatal(err)
		}
		nodes = append(nodes, n)
	}

	// A demonstration object with all four anatomical parts visibly
	// populated: representation segments, a supertype, invocation
	// classes, live short-term state.
	base := eden.NewType("stored-object")
	base.Op(eden.Operation{Name: "describe", Access: eden.AccessRead, Handler: func(c *eden.Call) {}})
	demo := eden.NewType("mailbox")
	demo.Extends = "stored-object"
	demo.Limit("deliver", 1)
	demo.Init = func(o *eden.Object) error {
		_ = o.Port("incoming", 16)
		_ = o.Semaphore("quota", 4)
		o.SpawnBehavior(func(stop <-chan struct{}) { <-stop })
		return o.Update(func(r *eden.Representation) error {
			r.SetData("meta", make([]byte, 8))
			r.SetData("msg:00000001", []byte("welcome to Eden"))
			return nil
		})
	}
	demo.Op(eden.Operation{Name: "deliver", Class: "deliver", Handler: func(c *eden.Call) {}})
	demo.Op(eden.Operation{Name: "read", Access: eden.AccessRead, Handler: func(c *eden.Call) {}})
	if err := sys.RegisterType(base); err != nil {
		log.Fatal(err)
	}
	if err := sys.RegisterType(demo); err != nil {
		log.Fatal(err)
	}
	cap, err := nodes[0].CreateObject("mailbox")
	if err != nil {
		log.Fatal(err)
	}
	obj, err := nodes[0].Object(cap)
	if err != nil {
		log.Fatal(err)
	}
	// Point long-term storage at the file server, like a real Eden
	// object would.
	if err := obj.SetChecksite(eden.RelReplicated, nodes[4].Num()); err != nil {
		log.Fatal(err)
	}
	if err := obj.Checkpoint(); err != nil {
		log.Fatal(err)
	}

	// Populate the directory and EFS layers so Figure 3 shows them
	// live.
	root, err := nodes[4].NewDirectory()
	if err != nil {
		log.Fatal(err)
	}
	if err := nodes[0].Bind(root, "demo-mailbox", cap); err != nil {
		log.Fatal(err)
	}
	if _, err := nodes[4].EFS(efs.Optimistic).CreateFile(); err != nil {
		log.Fatal(err)
	}
	return sys, nodes, cap
}

// figure1 renders the system-level hardware architecture: node
// machines and special-purpose servers on an Ethernet — from the live
// transport mesh.
func figure1(sys *eden.System, nodes []*eden.Node) {
	fmt.Println("Figure 1. Eden system-level hardware architecture (live topology)")
	fmt.Println()
	var boxes []string
	for _, n := range nodes {
		label := fmt.Sprintf("%s #%d", n.Name(), n.Num())
		if strings.Contains(n.Name(), "server") {
			label += " [300MB disk]"
		}
		boxes = append(boxes, label)
	}
	for _, b := range boxes {
		fmt.Printf("   +-%s-+\n", strings.Repeat("-", len(b)))
		fmt.Printf("   | %s |\n", b)
		fmt.Printf("   +-%s-+\n", strings.Repeat("-", len(b)))
		fmt.Println("        |")
	}
	fmt.Println("  ======+======================================= Ethernet (10 Mb/s)")
	st := sys.NetworkStats()
	fmt.Printf("\n  live: %d nodes attached, %d frames carried so far\n", len(nodes), st.Frames)
}

// figure2 renders the node machine architecture from the node's real
// configuration.
func figure2(n *eden.Node) {
	cfg := n.Kernel().Config()
	fmt.Printf("Figure 2. Eden node machine system-level architecture (%s, live config)\n\n", n.Name())
	fmt.Println("   central system (iAPX 432)")
	fmt.Println("   +--------------------------------------------------+")
	fmt.Print("   |  ")
	for i := 0; i < cfg.GDPs; i++ {
		fmt.Printf("[GDP %d]  ", i+1)
	}
	fmt.Println()
	fmt.Println("   |      |         |")
	fmt.Println("   |  ====+=========+====== packet-based interconnect  |")
	fmt.Println("   |      |                     |")
	fmt.Println("   |  [ 1M bytes memory ]   ", ipBoxes(cfg.IPs))
	fmt.Println("   +--------------------------------------------------+")
	for i, sat := range cfg.Satellites {
		fmt.Printf("          IP %d -> satellite %d (Multibus, 8086/8087): %s\n", i+1, i+1, sat)
	}
	fmt.Printf("\n  live: virtual processors=%s, memory budget=%s\n",
		unboundedOr(cfg.VirtualProcessors), unboundedOr64(cfg.MemoryBytes))
}

func ipBoxes(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "[IP %d] ", i+1)
	}
	return b.String()
}

func unboundedOr(v int) string {
	if v == 0 {
		return "unbounded"
	}
	return fmt.Sprint(v)
}

func unboundedOr64(v int64) string {
	if v == 0 {
		return "unbounded"
	}
	return fmt.Sprint(v)
}

// figure3 renders the software layering from the actually registered
// type managers.
func figure3(sys *eden.System) {
	fmt.Println("Figure 3. Eden software structure (live type registry)")
	fmt.Println()
	names := sys.Registry().Names()
	var system, user []string
	for _, n := range names {
		if n == naming.TypeName || n == efs.TypeName {
			system = append(system, n)
		} else {
			user = append(user, n)
		}
	}
	sort.Strings(system)
	sort.Strings(user)
	rows := []struct{ layer, contents string }{
		{"user objects / applications", strings.Join(user, ", ")},
		{"system objects (filing, directories, ...)", strings.Join(system, ", ")},
		{"distribution facilities", "locator: hint cache + broadcast protocol + recovery"},
		{"single-node object space", "coordinator, invocation classes, semaphores, ports"},
		{"kernel primitives", "create / invoke / checkpoint / checksite / crash / move / freeze"},
	}
	width := 0
	for _, r := range rows {
		if l := len(r.layer) + len(r.contents) + 5; l > width {
			width = l
		}
	}
	bar := "   +" + strings.Repeat("-", width) + "+"
	for _, r := range rows {
		fmt.Println(bar)
		fmt.Printf("   | %-*s |\n", width-2, r.layer+" : "+r.contents)
	}
	fmt.Println(bar)
}

// figure4 dumps a live object's anatomy: the four parts of an Eden
// object.
func figure4(n *eden.Node, cap eden.Capability) {
	obj, err := n.Object(cap)
	if err != nil {
		log.Fatal(err)
	}
	a := obj.Describe()
	fmt.Println("Figure 4. An Eden Object (live instance)")
	fmt.Println()
	fmt.Println("   +--------------------------------------------------------------+")
	fmt.Printf("   | NAME        %v\n", a.Name)
	fmt.Printf("   | TYPE        %q (operations: %s)\n", a.TypeName, strings.Join(a.Operations, ", "))
	fmt.Println("   | REPRESENTATION (long-term state)")
	for _, s := range a.Segments {
		fmt.Printf("   |   segment %-16q %-5s %6d\n", s.Name, s.Kind, s.Len)
	}
	fmt.Printf("   |   total %d bytes, checkpoint version %d, frozen=%v\n", a.RepBytes, a.Version, a.Frozen)
	fmt.Println("   | SHORT-TERM STATE (never written to long-term storage)")
	fmt.Printf("   |   invocations running: %d\n", a.Running)
	var classes []string
	for c, lim := range a.Classes {
		if lim == 0 {
			classes = append(classes, c+"(unlimited)")
		} else {
			classes = append(classes, fmt.Sprintf("%s(max %d)", c, lim))
		}
	}
	sort.Strings(classes)
	fmt.Printf("   |   invocation classes: %s\n", strings.Join(classes, ", "))
	fmt.Printf("   |   semaphores: %v  ports: %v\n", a.Semaphores, a.Ports)
	fmt.Println("   +--------------------------------------------------------------+")
}
