// Printroom: a complete Eden subsystem combining three of the paper's
// ideas — a gateway object fronting a foreign device ("special-purpose
// servers ... interfaced to the system through node machines"), a
// placement policy object distributing the subsystem's worker objects
// across nodes (§4.3), and spooler objects whose caretaker behaviors
// drain queues in the background.
//
// Users on any node drop print jobs into a spooler by name; spoolers
// queue them in their representations and a behavior feeds the one
// shared line-printer gateway, which serializes access to the physical
// device with a limit-1 invocation class.
package main

import (
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"eden"
	"eden/internal/gateway"
)

// opts gives every invocation an explicit five-second budget, so no
// call can hang the walkthrough silently.
func opts() *eden.InvokeOptions { return &eden.InvokeOptions{Timeout: 5 * time.Second} }

const spoolerType = "print.spooler"

// spoolerManager defines the spooler: "submit" enqueues a job into the
// representation; a behavior started at init/reincarnation drains jobs
// to the printer gateway (whose capability lives in the spooler's
// capability segment).
func spoolerManager() *eden.TypeManager {
	tm := eden.NewType(spoolerType)
	tm.Limit("queue", 1)

	startDrain := func(o *eden.Object) error {
		o.SpawnBehavior(func(stop <-chan struct{}) {
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					// Pop one job and its printer capability.
					var job []byte
					var jobSeg string
					var printer eden.Capability
					o.View(func(r *eden.Representation) {
						for _, seg := range r.Names() {
							if strings.HasPrefix(seg, "job:") {
								job, _ = r.Data(seg)
								jobSeg = seg
								break
							}
						}
						if caps, err := r.Caps("printer"); err == nil && len(caps) == 1 {
							printer = caps[0]
						}
					})
					if jobSeg == "" || printer.IsNull() {
						continue
					}
					// Print via the gateway (location-transparent),
					// then dequeue only on success.
					if _, err := o.Invoke(printer, "print", job, nil, opts()); err != nil {
						continue // device busy/offline: retry next tick
					}
					_ = o.Update(func(r *eden.Representation) error {
						r.Delete(jobSeg)
						return nil
					})
				}
			}
		})
		return nil
	}
	tm.Init = func(o *eden.Object) error {
		if err := o.Update(func(r *eden.Representation) error {
			r.SetData("next", []byte{0, 0, 0, 0, 0, 0, 0, 0})
			return nil
		}); err != nil {
			return err
		}
		return startDrain(o)
	}
	tm.Reincarnate = startDrain

	tm.Op(eden.Operation{
		Name:  "attach-printer",
		Class: "queue",
		Handler: func(c *eden.Call) {
			if len(c.Caps) != 1 {
				c.Fail("attach-printer: one capability required")
				return
			}
			_ = c.Self().Update(func(r *eden.Representation) error {
				r.SetCaps("printer", eden.CapabilityList{c.Caps[0]})
				return nil
			})
		},
	})
	tm.Op(eden.Operation{
		Name:  "submit",
		Class: "queue",
		Handler: func(c *eden.Call) {
			err := c.Self().Update(func(r *eden.Representation) error {
				next, _ := r.Data("next")
				seq := uint64(next[0])<<56 | uint64(next[1])<<48 | uint64(next[2])<<40 | uint64(next[3])<<32 |
					uint64(next[4])<<24 | uint64(next[5])<<16 | uint64(next[6])<<8 | uint64(next[7])
				seq++
				for i := 0; i < 8; i++ {
					next[7-i] = byte(seq >> (8 * i))
				}
				r.SetData("next", next)
				r.SetData(fmt.Sprintf("job:%08d", seq), c.Data)
				return nil
			})
			if err != nil {
				c.Fail("submit: %v", err)
			}
		},
	})
	tm.Op(eden.Operation{
		Name:   "pending",
		Access: eden.AccessRead,
		Handler: func(c *eden.Call) {
			count := 0
			c.Self().View(func(r *eden.Representation) {
				for _, seg := range r.Names() {
					if strings.HasPrefix(seg, "job:") {
						count++
					}
				}
			})
			c.Return([]byte{byte(count)})
		},
	})
	return tm
}

func main() {
	sys, err := eden.NewSystem(eden.SystemConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// Four offices and the machine room hosting the printer.
	var offices []*eden.Node
	for _, name := range []string{"office-1", "office-2", "office-3", "office-4"} {
		n, err := sys.AddNode(name)
		if err != nil {
			log.Fatal(err)
		}
		offices = append(offices, n)
	}
	machineRoom, _ := sys.AddNode("machine-room")

	// The foreign device: a line printer behind a gateway object,
	// hosted in the machine room. The sink stands for the device
	// driver on that node.
	var printMu sync.Mutex
	var printed []string
	if err := sys.RegisterGateway(gateway.LinePrinterSpec("gateway.lineprinter", func(line string) {
		printMu.Lock()
		printed = append(printed, line)
		printMu.Unlock()
	})); err != nil {
		log.Fatal(err)
	}
	if err := sys.RegisterType(spoolerManager()); err != nil {
		log.Fatal(err)
	}
	printer, err := machineRoom.CreateObject("gateway.lineprinter")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Eden print room ==")
	fmt.Printf("printer gateway on %s\n", machineRoom.Name())

	// The subsystem's placement policy lives in the machine room and
	// spreads spoolers across the offices.
	pol, err := machineRoom.NewPlacementPolicy(offices[0].Num(), offices[1].Num(), offices[2].Num(), offices[3].Num())
	if err != nil {
		log.Fatal(err)
	}
	registry, _ := machineRoom.NewDirectory()

	// Two spoolers, placed by policy, registered by name.
	for _, name := range []string{"spool-a", "spool-b"} {
		sp, err := machineRoom.CreateObject(spoolerType)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := machineRoom.Invoke(sp, "attach-printer", nil, eden.CapabilityList{printer}, opts()); err != nil {
			log.Fatal(err)
		}
		dest, err := machineRoom.PlaceAndMove(pol, sp)
		if err != nil {
			log.Fatal(err)
		}
		if err := machineRoom.Bind(registry, name, sp); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("spooler %s placed on node %d by the policy object\n", name, dest)
	}

	// Every office submits jobs by name, oblivious to placement.
	var wg sync.WaitGroup
	for i, office := range offices {
		i, office := i, office
		wg.Add(1)
		go func() {
			defer wg.Done()
			spool := "spool-a"
			if i%2 == 1 {
				spool = "spool-b"
			}
			sp, err := office.LookupName(registry, spool)
			if err != nil {
				log.Fatal(err)
			}
			for j := 0; j < 3; j++ {
				line := fmt.Sprintf("job from %s #%d", office.Name(), j+1)
				if _, err := office.Invoke(sp, "submit", []byte(line), nil, opts()); err != nil {
					log.Fatal(err)
				}
			}
		}()
	}
	wg.Wait()
	fmt.Println("12 jobs submitted from 4 offices into 2 spoolers")

	// Wait for the caretaker behaviors to drain everything through the
	// single serialized printer.
	deadline := time.Now().Add(5 * time.Second)
	for {
		printMu.Lock()
		done := len(printed) == 12
		printMu.Unlock()
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	printMu.Lock()
	fmt.Printf("printer produced %d lines; first three:\n", len(printed))
	for _, l := range printed[:3] {
		fmt.Println("  " + l)
	}
	printMu.Unlock()

	rep, _ := machineRoom.Invoke(printer, "gateway-stats", nil, nil, opts())
	fmt.Printf("gateway served %d foreign requests\n== done ==\n", gateway.Requests(rep.Data))
}
