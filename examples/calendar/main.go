// Calendar: a shared appointment calendar — the other application the
// historical Eden project motivated its "integrated" side with.
//
// One calendar object per working group. Booking is an invocation
// class with limit 1, so concurrent booking attempts from different
// nodes serialize inside the object and double-booking is structurally
// impossible. A caretaker behavior expires old entries in the
// background, demonstrating the paper's behavior mechanism.
package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eden"
)

// opts gives every invocation an explicit five-second budget, so no
// call can hang the walkthrough silently.
func opts() *eden.InvokeOptions { return &eden.InvokeOptions{Timeout: 5 * time.Second} }

const calendarType = "calendar"

// Slots are hours 0..23 of a single day; a booking names the slot and
// the holder. Request: slot(2) | holder. Representation: one data
// segment "slot:<n>" per booked slot.
func slotSeg(slot uint16) string { return fmt.Sprintf("slot:%02d", slot) }

func calendarManager(expired *atomic.Int64) *eden.TypeManager {
	tm := eden.NewType(calendarType)
	tm.Limit("book", 1)

	startCaretaker := func(o *eden.Object) error {
		// A behavior sweeps bookings marked cancelled, modeling the
		// paper's "object caretaking" (tree balancing, internal GC).
		o.SpawnBehavior(func(stop <-chan struct{}) {
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					_ = o.Update(func(r *eden.Representation) error {
						for _, seg := range r.Names() {
							if strings.HasPrefix(seg, "slot:") {
								b, _ := r.Data(seg)
								if strings.HasPrefix(string(b), "!") { // tombstone
									r.Delete(seg)
									if expired != nil {
										expired.Add(1)
									}
								}
							}
						}
						return nil
					})
				}
			}
		})
		return nil
	}
	tm.Init = startCaretaker
	tm.Reincarnate = startCaretaker

	tm.Op(eden.Operation{
		Name:  "book",
		Class: "book",
		Handler: func(c *eden.Call) {
			if len(c.Data) < 3 {
				c.Fail("book: need slot and holder")
				return
			}
			slot := binary.BigEndian.Uint16(c.Data)
			holder := string(c.Data[2:])
			if slot > 23 {
				c.Fail("book: slot %d out of range", slot)
				return
			}
			seg := slotSeg(slot)
			err := c.Self().Update(func(r *eden.Representation) error {
				if b, err := r.Data(seg); err == nil && !strings.HasPrefix(string(b), "!") {
					return fmt.Errorf("slot %02d:00 already booked by %s", slot, b)
				}
				r.SetData(seg, []byte(holder))
				return nil
			})
			if err != nil {
				c.Fail("%v", err)
				return
			}
			_ = c.Self().Checkpoint()
		},
	})

	tm.Op(eden.Operation{
		Name:  "cancel",
		Class: "book",
		Handler: func(c *eden.Call) {
			if len(c.Data) < 2 {
				c.Fail("cancel: need slot")
				return
			}
			slot := binary.BigEndian.Uint16(c.Data)
			seg := slotSeg(slot)
			err := c.Self().Update(func(r *eden.Representation) error {
				b, err := r.Data(seg)
				if err != nil || strings.HasPrefix(string(b), "!") {
					return fmt.Errorf("slot %02d:00 is not booked", slot)
				}
				// Tombstone; the caretaker behavior collects it.
				r.SetData(seg, append([]byte("!"), b...))
				return nil
			})
			if err != nil {
				c.Fail("%v", err)
			}
		},
	})

	tm.Op(eden.Operation{
		Name:   "agenda",
		Access: eden.AccessRead,
		Handler: func(c *eden.Call) {
			var lines []string
			c.Self().View(func(r *eden.Representation) {
				for _, seg := range r.Names() {
					if strings.HasPrefix(seg, "slot:") {
						b, _ := r.Data(seg)
						if !strings.HasPrefix(string(b), "!") {
							lines = append(lines, strings.TrimPrefix(seg, "slot:")+":00 "+string(b))
						}
					}
				}
			})
			c.Return([]byte(strings.Join(lines, "\n")))
		},
	})
	return tm
}

func book(n *eden.Node, cal eden.Capability, slot uint16, holder string) error {
	req := binary.BigEndian.AppendUint16(nil, slot)
	req = append(req, holder...)
	_, err := n.Invoke(cal, "book", req, nil, &eden.InvokeOptions{Timeout: 5 * time.Second})
	return err
}

func main() {
	sys, err := eden.NewSystem(eden.SystemConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	var expired atomic.Int64
	if err := sys.RegisterType(calendarManager(&expired)); err != nil {
		log.Fatal(err)
	}

	// The kernel working group: one node per member, the calendar on
	// the group lead's node.
	var members []*eden.Node
	for _, name := range []string{"lead", "member-a", "member-b", "member-c"} {
		n, err := sys.AddNode(name)
		if err != nil {
			log.Fatal(err)
		}
		members = append(members, n)
	}
	cal, err := members[0].CreateObject(calendarType)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Eden shared calendar ==")

	// Everyone races for the 10:00 design review slot from their own
	// node. The book class's limit of 1 serializes them inside the
	// object: exactly one wins.
	var wg sync.WaitGroup
	var winners, losers atomic.Int64
	for i, n := range members {
		i, n := i, n
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := book(n, cal, 10, fmt.Sprintf("user-%d", i))
			switch {
			case err == nil:
				winners.Add(1)
			case errors.Is(err, eden.ErrInvocationFailed):
				losers.Add(1)
			default:
				log.Printf("unexpected: %v", err)
			}
		}()
	}
	wg.Wait()
	fmt.Printf("4 concurrent bookings for 10:00 -> %d won, %d correctly refused\n",
		winners.Load(), losers.Load())

	// Fill in a day.
	must(book(members[1], cal, 9, "standup"))
	must(book(members[2], cal, 13, "432-bringup"))
	must(book(members[3], cal, 16, "reading-group"))

	rep, err := members[2].Invoke(cal, "agenda", nil, nil, opts())
	must(err)
	fmt.Println("\nagenda (read from member-b's node):")
	for _, line := range strings.Split(string(rep.Data), "\n") {
		fmt.Println("  " + line)
	}

	// Cancel and let the caretaker behavior collect the tombstone.
	req := binary.BigEndian.AppendUint16(nil, 13)
	_, err = members[0].Invoke(cal, "cancel", req, nil, opts())
	must(err)
	deadline := time.Now().Add(2 * time.Second)
	for expired.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("\ncancelled 13:00; caretaker behavior collected %d tombstone(s)\n", expired.Load())

	// The 13:00 slot is bookable again.
	must(book(members[3], cal, 13, "impromptu-demo"))
	rep, _ = members[0].Invoke(cal, "agenda", nil, nil, opts())
	fmt.Println("\nfinal agenda:")
	for _, line := range strings.Split(string(rep.Data), "\n") {
		fmt.Println("  " + line)
	}
	fmt.Println("== done ==")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
