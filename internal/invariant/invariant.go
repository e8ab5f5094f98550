// Package invariant is the unlock service's safety oracle: the one judge
// of durable state that every drill and durability test calls, so the
// safety contract is written once (DESIGN.md §17). It checks the first
// three clauses: no HOTP counter regression, no accepted replay, and
// accepted ⇒ durable. The fourth, at most one unfenced owner per device
// per epoch, is out of scope.
package invariant

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"

	"wearlock/internal/store"
)

// Kind names what a violation breaks. A device held before the event
// must be there after it (LostDevice), under the same pairing key unless
// recovery reports it repaired (KeyChange), and a repaired device must
// not keep the key its untrusted counters belong to, or old tokens could
// replay (RepairKeptKey). Under the same key neither counter may go
// lower (CounterRegression). Every acknowledged counter floor must be
// durable (AckedNotDurable), and no device may have more accepted
// unlocks than its VerCounter advanced (AcceptedReplay).
type Kind string

const (
	LostDevice        Kind = "lost device"
	KeyChange         Kind = "key change without repair"
	RepairKeptKey     Kind = "repair kept key"
	CounterRegression Kind = "counter regression"
	AckedNotDurable   Kind = "acked but not durable"
	AcceptedReplay    Kind = "accepted replay"
)

// Violation is one device breaking one clause; Detail gives the values.
type Violation struct {
	Kind   Kind
	Device int
	Detail string
}

// Floor is an acknowledged counter floor: the durable state must hold
// the device at or above both counters.
type Floor struct{ Gen, Ver uint64 }

// Event is what the oracle judges: the durable state on both sides of a
// restart, failover, handoff or kill, and what clients were told.
type Event struct {
	Before, After store.State
	// Repaired lists the devices recovery re-paired under a fresh key.
	Repaired []int
	// Accepted counts the unlocks acknowledged per device between
	// Before and After.
	Accepted map[int]int
	// Acked holds per-device counter floors clients were acknowledged.
	Acked map[int]Floor
}

// Violations is the verdict, ordered by device; it names a device at
// most once per kind.
type Violations []Violation

// Count reports the violations of the given kinds.
func (vs Violations) Count(kinds ...Kind) int {
	n := 0
	for _, v := range vs {
		if slices.Contains(kinds, v.Kind) {
			n++
		}
	}
	return n
}

// Err is nil for a clean verdict and otherwise lists every violation.
func (vs Violations) Err() error {
	var errs []error
	for _, v := range vs {
		errs = append(errs, fmt.Errorf("device %d: %s: %s", v.Device, v.Kind, v.Detail))
	}
	return errors.Join(errs...)
}

// Check judges one event against the contract.
func Check(ev Event) Violations {
	var vs Violations
	add := func(k Kind, dev int, format string, args ...any) {
		vs = append(vs, Violation{k, dev, fmt.Sprintf(format, args...)})
	}
	for id, b := range ev.Before.Devices {
		a, ok := ev.After.Devices[id]
		repaired := slices.Contains(ev.Repaired, id)
		switch {
		case !ok:
			add(LostDevice, id, "held at gen %d ver %d", b.GenCounter, b.VerCounter)
		case !bytes.Equal(a.Key, b.Key):
			if !repaired {
				add(KeyChange, id, "no repair reported")
			}
		default:
			if repaired {
				add(RepairKeptKey, id, "reported repaired")
			}
			if a.GenCounter < b.GenCounter || a.VerCounter < b.VerCounter {
				add(CounterRegression, id, "gen %d->%d ver %d->%d", b.GenCounter, a.GenCounter, b.VerCounter, a.VerCounter)
			}
		}
	}
	for id, f := range ev.Acked {
		if a, ok := ev.After.Devices[id]; !ok || a.GenCounter < f.Gen || a.VerCounter < f.Ver {
			add(AckedNotDurable, id, "acked gen %d ver %d, durable gen %d ver %d", f.Gen, f.Ver, a.GenCounter, a.VerCounter)
		}
	}
	for id, n := range ev.Accepted {
		b, a := ev.Before.Devices[id], ev.After.Devices[id]
		adv := a.VerCounter // a key change starts a fresh counter space
		if bytes.Equal(a.Key, b.Key) {
			adv -= min(b.VerCounter, a.VerCounter)
		}
		if uint64(n) > adv {
			add(AcceptedReplay, id, "%d accepted unlocks, verifier advanced %d", n, adv)
		}
	}
	slices.SortStableFunc(vs, func(x, y Violation) int { return cmp.Compare(x.Device, y.Device) })
	return vs
}

// Merge folds several shards' durable states into the cluster-wide view
// by per-device max: under one key each counter takes its highest value,
// since only a device's owner advances it and a handoff ships monotone
// state; across keys the record with the higher VerCounter wins whole.
func Merge(states ...store.State) store.State {
	out := store.State{Devices: map[int]store.DeviceState{}}
	for _, st := range states {
		for id, d := range st.Devices {
			cur, ok := out.Devices[id]
			switch {
			case ok && bytes.Equal(cur.Key, d.Key):
				cur.GenCounter = max(cur.GenCounter, d.GenCounter)
				cur.VerCounter = max(cur.VerCounter, d.VerCounter)
				out.Devices[id] = cur
			case !ok || d.VerCounter > cur.VerCounter:
				out.Devices[id] = d
			}
		}
	}
	return out
}
