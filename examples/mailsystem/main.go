// Mailsystem: the distributed application the historical Eden project
// actually built first — an electronic mail system in which every
// mailbox is an Eden object.
//
// Each user's mailbox lives on that user's node machine (fast local
// reads), is named through a shared directory object, checkpoints
// after delivery (mail survives node failures), and moves with the
// user when they relocate to another office.
package main

import (
	"time"

	"encoding/binary"
	"fmt"
	"log"
	"strings"

	"eden"
)

// opts gives every invocation an explicit five-second budget, so no
// call can hang the walkthrough silently.
func opts() *eden.InvokeOptions { return &eden.InvokeOptions{Timeout: 5 * time.Second} }

// Mailbox representation: a data segment per message, numbered; the
// "meta" segment holds the next message number.
const mailboxType = "mailbox"

// deliver's payload: fromLen(2) from | subjLen(2) subj | body.
func encodeMail(from, subject, body string) []byte {
	buf := make([]byte, 0, 4+len(from)+len(subject)+len(body))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(from)))
	buf = append(buf, from...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(subject)))
	buf = append(buf, subject...)
	return append(buf, body...)
}

func decodeMail(b []byte) (from, subject, body string) {
	if len(b) < 2 {
		return
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n+2 {
		return
	}
	from, b = string(b[:n]), b[n:]
	m := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < m {
		return
	}
	subject, body = string(b[:m]), string(b[m:])
	return
}

// mailboxManager defines the mailbox type. Delivery and deletion are
// serialized by a limit-1 invocation class; reading is concurrent.
func mailboxManager() *eden.TypeManager {
	tm := eden.NewType(mailboxType)
	tm.Init = func(o *eden.Object) error {
		return o.Update(func(r *eden.Representation) error {
			r.SetData("meta", []byte{0, 0, 0, 0, 0, 0, 0, 0})
			return nil
		})
	}
	tm.Limit("deliver", 1)

	tm.Op(eden.Operation{
		Name:  "deliver",
		Class: "deliver",
		Handler: func(c *eden.Call) {
			var seq uint64
			err := c.Self().Update(func(r *eden.Representation) error {
				meta, _ := r.Data("meta")
				seq = binary.BigEndian.Uint64(meta) + 1
				binary.BigEndian.PutUint64(meta, seq)
				r.SetData("meta", meta)
				r.SetData(fmt.Sprintf("msg:%08d", seq), c.Data)
				return nil
			})
			if err != nil {
				c.Fail("deliver: %v", err)
				return
			}
			// Mail must survive a node failure: checkpoint on every
			// delivery.
			if err := c.Self().Checkpoint(); err != nil {
				c.Fail("deliver: checkpoint: %v", err)
				return
			}
			var out [8]byte
			binary.BigEndian.PutUint64(out[:], seq)
			c.Return(out[:])
		},
	})

	tm.Op(eden.Operation{
		Name:   "list",
		Access: eden.AccessRead,
		Handler: func(c *eden.Call) {
			var lines []string
			c.Self().View(func(r *eden.Representation) {
				for _, seg := range r.Names() {
					if strings.HasPrefix(seg, "msg:") {
						b, _ := r.Data(seg)
						from, subject, _ := decodeMail(b)
						lines = append(lines, fmt.Sprintf("%s|%s|%s", strings.TrimPrefix(seg, "msg:"), from, subject))
					}
				}
			})
			c.Return([]byte(strings.Join(lines, "\n")))
		},
	})

	tm.Op(eden.Operation{
		Name:   "read",
		Access: eden.AccessRead,
		Handler: func(c *eden.Call) {
			seg := "msg:" + string(c.Data)
			var found []byte
			c.Self().View(func(r *eden.Representation) {
				if b, err := r.Data(seg); err == nil {
					found = b
				}
			})
			if found == nil {
				c.Fail("no message %s", c.Data)
				return
			}
			c.Return(found)
		},
	})

	tm.Op(eden.Operation{
		Name:  "delete",
		Class: "deliver",
		Handler: func(c *eden.Call) {
			seg := "msg:" + string(c.Data)
			err := c.Self().Update(func(r *eden.Representation) error {
				if !r.Has(seg) {
					return fmt.Errorf("no message %s", c.Data)
				}
				r.Delete(seg)
				return nil
			})
			if err != nil {
				c.Fail("%v", err)
				return
			}
			_ = c.Self().Checkpoint()
		},
	})
	return tm
}

// sendMail resolves the recipient's mailbox through the registry and
// delivers — from any node, with no idea where the mailbox lives.
func sendMail(n *eden.Node, registry eden.Capability, to, from, subject, body string) error {
	box, err := n.LookupName(registry, to)
	if err != nil {
		return fmt.Errorf("no such user %q: %w", to, err)
	}
	_, err = n.Invoke(box, "deliver", encodeMail(from, subject, body), nil, opts())
	return err
}

func listMail(n *eden.Node, registry eden.Capability, user string) ([]string, error) {
	box, err := n.LookupName(registry, user)
	if err != nil {
		return nil, err
	}
	rep, err := n.Invoke(box, "list", nil, nil, opts())
	if err != nil {
		return nil, err
	}
	if len(rep.Data) == 0 {
		return nil, nil
	}
	return strings.Split(string(rep.Data), "\n"), nil
}

func main() {
	sys, err := eden.NewSystem(eden.SystemConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	if err := sys.RegisterType(mailboxManager()); err != nil {
		log.Fatal(err)
	}

	// Four node machines: three offices and a file server that acts as
	// the well-known home of the user registry and as a checksite.
	lazowska, _ := sys.AddNode("office-lazowska")
	levy, _ := sys.AddNode("office-levy")
	almes, _ := sys.AddNode("office-almes")
	server, _ := sys.AddNode("file-server")

	fmt.Println("== Eden mail system ==")

	// The registry: a directory object on the file server mapping user
	// names to mailbox capabilities.
	registry, err := server.NewDirectory()
	if err != nil {
		log.Fatal(err)
	}

	// Each user's mailbox is created on their own node, with the file
	// server as a replicated checksite, then registered by name.
	users := map[string]*eden.Node{"lazowska": lazowska, "levy": levy, "almes": almes}
	for name, node := range users {
		box, err := node.CreateObject(mailboxType)
		if err != nil {
			log.Fatal(err)
		}
		obj, _ := node.Object(box)
		if err := obj.SetChecksite(eden.RelReplicated, server.Num()); err != nil {
			log.Fatal(err)
		}
		if err := obj.Checkpoint(); err != nil {
			log.Fatal(err)
		}
		if err := node.Bind(registry, name, box); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("mailbox for %-9s on %s (checksite: %s)\n", name, node.Name(), server.Name())
	}

	// Mail flows between nodes with only names.
	must(sendMail(levy, registry, "lazowska", "levy", "432 microcode", "The GDP invocation path worries me."))
	must(sendMail(almes, registry, "lazowska", "almes", "Ethernet measurements", "Utilization saturates near 95% with long packets."))
	must(sendMail(lazowska, registry, "levy", "lazowska", "re: 432 microcode", "Caching should help; let's measure."))

	msgs, err := listMail(almes, registry, "lazowska")
	must(err)
	fmt.Println("\nlazowska's inbox (listed from almes's node):")
	for _, m := range msgs {
		parts := strings.SplitN(m, "|", 3)
		fmt.Printf("  #%s from %-9s %s\n", parts[0], parts[1], parts[2])
	}

	// Node failure: lazowska's office machine dies. The mailbox's
	// checksite (the file server) reincarnates it on demand — no mail
	// is lost, because deliver checkpoints.
	fmt.Println("\n-- office-lazowska loses power --")
	lazowska.Crash()
	msgs, err = listMail(levy, registry, "lazowska")
	must(err)
	fmt.Printf("inbox recovered from checksite, %d messages intact:\n", len(msgs))
	for _, m := range msgs {
		parts := strings.SplitN(m, "|", 3)
		fmt.Printf("  #%s from %-9s %s\n", parts[0], parts[1], parts[2])
	}

	// Relocation: levy moves offices; his mailbox moves with him. Old
	// capabilities keep working through the forwarding pointer.
	fmt.Println("\n-- levy relocates to almes's building --")
	levyBox, _ := server.LookupName(registry, "levy")
	obj, err := levy.Object(levyBox)
	must(err)
	must(<-obj.Move(almes.Num()))
	must(sendMail(server, registry, "levy", "postmaster", "welcome", "Your mailbox moved with you."))
	msgs, err = listMail(almes, registry, "levy")
	must(err)
	fmt.Printf("levy's mailbox now serves from %s with %d messages\n", almes.Name(), len(msgs))

	st := sys.NetworkStats()
	fmt.Printf("\nnetwork: %d frames, %d bytes\n== done ==\n", st.Frames, st.Bytes)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
