// Package naming implements Eden's user-level directory service: a
// hierarchical system "for naming, storing and retrieving Eden
// objects".
//
// Directories are ordinary Eden objects (per the paper, *all*
// traditional system software is "built using only the kernel-supplied
// object primitives"): a directory's representation maps string names
// to capabilities, stored in capability segments, and its operations
// are invoked like any other object's. This package supplies the
// directory type manager plus a client API (Bind/Lookup/Resolve/...)
// that wraps the invocations.
package naming

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"eden/internal/capability"
	"eden/internal/kernel"
	"eden/internal/rights"
	"eden/internal/segment"
)

// TypeName is the directory type's registered name.
const TypeName = "eden.directory"

// WriteRight is the type-defined right a capability must carry to
// mutate a directory (bind, unbind, mkdir). Lookup and list need only
// rights.Invoke.
var WriteRight = rights.Type(0)

// Errors reported by the client API.
var (
	// ErrNotFound reports a name with no binding.
	ErrNotFound = errors.New("naming: name not bound")
	// ErrExists reports a bind over an existing name without replace.
	ErrExists = errors.New("naming: name already bound")
	// ErrBadName reports an empty name or one containing '/'.
	ErrBadName = errors.New("naming: invalid name component")
)

// entry prefix inside the representation: one capability segment per
// binding keeps bindings independent and exercises the kernel's
// capability-segment machinery.
const entryPrefix = "bind:"

// RegisterType installs the directory type manager into a registry.
// Bind/unbind/mkdir share one invocation class with limit 1, making
// directory mutation serializable per directory, as a correct
// directory requires.
func RegisterType(reg *kernel.Registry) error {
	tm := kernel.NewType(TypeName)
	tm.Limit("mutate", 1)

	tm.Op(kernel.Operation{
		Name:   "bind",
		Class:  "mutate",
		Rights: WriteRight,
		Handler: func(c *kernel.Call) {
			name := string(c.Data)
			if !validComponent(name) {
				c.Fail("bind: %v: %q", ErrBadName, name)
				return
			}
			if len(c.Caps) != 1 || c.Caps[0].IsNull() {
				c.Fail("bind: exactly one capability parameter required")
				return
			}
			seg := entryPrefix + name
			err := c.Self().Update(func(r *segment.Representation) error {
				if r.Has(seg) {
					return ErrExists
				}
				r.SetCaps(seg, capability.List{c.Caps[0]})
				return nil
			})
			if err != nil {
				c.Fail("bind: %v: %q", err, name)
			}
		},
	})

	tm.Op(kernel.Operation{
		Name:   "rebind",
		Class:  "mutate",
		Rights: WriteRight,
		Handler: func(c *kernel.Call) {
			name := string(c.Data)
			if !validComponent(name) {
				c.Fail("rebind: %v: %q", ErrBadName, name)
				return
			}
			if len(c.Caps) != 1 || c.Caps[0].IsNull() {
				c.Fail("rebind: exactly one capability parameter required")
				return
			}
			_ = c.Self().Update(func(r *segment.Representation) error {
				r.SetCaps(entryPrefix+name, capability.List{c.Caps[0]})
				return nil
			})
		},
	})

	tm.Op(kernel.Operation{
		Name:   "unbind",
		Class:  "mutate",
		Rights: WriteRight,
		Handler: func(c *kernel.Call) {
			name := string(c.Data)
			seg := entryPrefix + name
			err := c.Self().Update(func(r *segment.Representation) error {
				if !r.Has(seg) {
					return ErrNotFound
				}
				r.Delete(seg)
				return nil
			})
			if err != nil {
				c.Fail("unbind: %v: %q", err, name)
			}
		},
	})

	tm.Op(kernel.Operation{
		Name:   "lookup",
		Class:  "read",
		Access: kernel.AccessRead,
		Handler: func(c *kernel.Call) {
			name := string(c.Data)
			var found capability.Capability
			var ok bool
			c.Self().View(func(r *segment.Representation) {
				if l, err := r.Caps(entryPrefix + name); err == nil && len(l) == 1 {
					found, ok = l[0], true
				}
			})
			if !ok {
				c.Fail("lookup: %v: %q", ErrNotFound, name)
				return
			}
			c.ReturnCaps(found)
		},
	})

	tm.Op(kernel.Operation{
		Name:   "list",
		Class:  "read",
		Access: kernel.AccessRead,
		Handler: func(c *kernel.Call) {
			var names []string
			c.Self().View(func(r *segment.Representation) {
				for _, seg := range r.Names() {
					if strings.HasPrefix(seg, entryPrefix) {
						names = append(names, strings.TrimPrefix(seg, entryPrefix))
					}
				}
			})
			sort.Strings(names)
			c.Return([]byte(strings.Join(names, "\n")))
		},
	})

	return reg.Register(tm)
}

func validComponent(name string) bool {
	return name != "" && !strings.Contains(name, "/")
}

// invokeOpts propagates the invoking node's configured budget so the
// directory client's invocations carry a visible, bounded timeout.
func invokeOpts(k *kernel.Kernel) *kernel.InvokeOptions {
	return &kernel.InvokeOptions{Timeout: k.Config().DefaultTimeout}
}

// CreateRoot creates a new directory object on the given kernel and
// returns a fully privileged capability for it.
func CreateRoot(k *kernel.Kernel) (capability.Capability, error) {
	return k.Create(TypeName, nil)
}

// Bind binds name to target in the directory, failing if the name is
// already bound.
func Bind(k *kernel.Kernel, dir capability.Capability, name string, target capability.Capability) error {
	_, err := k.Invoke(dir, "bind", []byte(name), capability.List{target}, invokeOpts(k))
	return annotate(err)
}

// Rebind binds name to target, replacing any existing binding.
func Rebind(k *kernel.Kernel, dir capability.Capability, name string, target capability.Capability) error {
	_, err := k.Invoke(dir, "rebind", []byte(name), capability.List{target}, invokeOpts(k))
	return annotate(err)
}

// Unbind removes the binding for name.
func Unbind(k *kernel.Kernel, dir capability.Capability, name string) error {
	_, err := k.Invoke(dir, "unbind", []byte(name), nil, invokeOpts(k))
	return annotate(err)
}

// Lookup returns the capability bound to name in the directory.
func Lookup(k *kernel.Kernel, dir capability.Capability, name string) (capability.Capability, error) {
	rep, err := k.Invoke(dir, "lookup", []byte(name), nil, invokeOpts(k))
	if err != nil {
		return capability.Capability{}, annotate(err)
	}
	if len(rep.Caps) != 1 {
		return capability.Capability{}, fmt.Errorf("naming: lookup returned %d capabilities", len(rep.Caps))
	}
	return rep.Caps[0], nil
}

// List returns the names bound in the directory, sorted.
func List(k *kernel.Kernel, dir capability.Capability) ([]string, error) {
	rep, err := k.Invoke(dir, "list", nil, nil, invokeOpts(k))
	if err != nil {
		return nil, annotate(err)
	}
	if len(rep.Data) == 0 {
		return nil, nil
	}
	return strings.Split(string(rep.Data), "\n"), nil
}

// Mkdir creates a new directory object on the same kernel and binds it
// under the parent.
func Mkdir(k *kernel.Kernel, parent capability.Capability, name string) (capability.Capability, error) {
	child, err := CreateRoot(k)
	if err != nil {
		return capability.Capability{}, err
	}
	if err := Bind(k, parent, name, child); err != nil {
		return capability.Capability{}, err
	}
	return child, nil
}

// Resolve walks a slash-separated path from root, returning the
// capability the final component is bound to. Empty components are
// rejected; a path of "" returns root itself.
func Resolve(k *kernel.Kernel, root capability.Capability, path string) (capability.Capability, error) {
	cur := root
	if path == "" {
		return cur, nil
	}
	for _, comp := range strings.Split(path, "/") {
		if comp == "" {
			return capability.Capability{}, fmt.Errorf("%w: empty component in %q", ErrBadName, path)
		}
		next, err := Lookup(k, cur, comp)
		if err != nil {
			return capability.Capability{}, fmt.Errorf("naming: resolving %q at %q: %w", path, comp, err)
		}
		cur = next
	}
	return cur, nil
}

// annotate maps handler failure text back to sentinel errors so
// callers can errors.Is against this package.
func annotate(err error) error {
	if err == nil {
		return nil
	}
	s := err.Error()
	switch {
	case strings.Contains(s, ErrNotFound.Error()):
		return fmt.Errorf("%w (%v)", ErrNotFound, err)
	case strings.Contains(s, ErrExists.Error()):
		return fmt.Errorf("%w (%v)", ErrExists, err)
	case strings.Contains(s, ErrBadName.Error()):
		return fmt.Errorf("%w (%v)", ErrBadName, err)
	default:
		return err
	}
}
