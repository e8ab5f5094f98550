package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// mapLedger is the two-map EnergyLedger the slice ledger replaced, kept
// as the reference its sums and fingerprint lines must match bit for bit.
type mapLedger struct {
	computeJ map[string]float64
	radioJ   map[string]float64
}

func newMapLedger() *mapLedger {
	return &mapLedger{computeJ: make(map[string]float64), radioJ: make(map[string]float64)}
}

func (e *mapLedger) AddCompute(name string, j float64) { e.computeJ[name] += j }
func (e *mapLedger) AddRadio(name string, j float64)   { e.radioJ[name] += j }

func (e *mapLedger) Merge(other *mapLedger) {
	for name, j := range other.computeJ {
		e.computeJ[name] += j
	}
	for name, j := range other.radioJ {
		e.radioJ[name] += j
	}
}

func (e *mapLedger) Total(name string) float64 { return e.computeJ[name] + e.radioJ[name] }

// fingerprint renders the energy lines as Result.Fingerprint rendered
// them from the two maps.
func (e *mapLedger) fingerprint() string {
	devices := make(map[string]bool)
	for name := range e.computeJ {
		devices[name] = true
	}
	for name := range e.radioJ {
		devices[name] = true
	}
	names := make([]string, 0, len(devices))
	for name := range devices {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	f := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	for _, name := range names {
		fmt.Fprintf(&b, "energy %q compute=%s radio=%s\n", name, f(e.computeJ[name]), f(e.radioJ[name]))
	}
	return b.String()
}

// Random charge and merge sequences over a few device names (some
// charged with only one kind, some never) leave the slice ledger and the
// map reference with the same Compute, Radio and Total bits for every
// name and the same fingerprint energy lines.
func TestEnergyLedgerMatchesMapReference(t *testing.T) {
	names := []string{"Pixel", "Watch", "link", "", "absent"}
	rng := rand.New(rand.NewSource(11))
	joules := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Float64() * 1e-9
		default:
			return rng.ExpFloat64()
		}
	}
	// charge applies n random charges to both ledgers; the last name is
	// never charged.
	charge := func(got *EnergyLedger, want *mapLedger, n int) {
		for i := 0; i < n; i++ {
			name := names[rng.Intn(len(names)-1)]
			j := joules()
			if rng.Intn(2) == 0 {
				got.AddCompute(name, j)
				want.AddCompute(name, j)
			} else {
				got.AddRadio(name, j)
				want.AddRadio(name, j)
			}
		}
	}
	for trial := 0; trial < 500; trial++ {
		got, want := NewEnergyLedger(), newMapLedger()
		charge(got, want, rng.Intn(20))
		for merges := rng.Intn(4); merges > 0; merges-- {
			otherGot, otherWant := NewEnergyLedger(), newMapLedger()
			charge(otherGot, otherWant, rng.Intn(10))
			got.Merge(otherGot)
			want.Merge(otherWant)
			charge(got, want, rng.Intn(5))
		}
		for _, name := range names {
			pairs := [][2]float64{
				{got.Compute(name), want.computeJ[name]},
				{got.Radio(name), want.radioJ[name]},
				{got.Total(name), want.Total(name)},
			}
			for k, p := range pairs {
				if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
					t.Fatalf("trial %d: %q sum %d is %016x, reference %016x", trial, name, k, math.Float64bits(p[0]), math.Float64bits(p[1]))
				}
			}
		}
		var b strings.Builder
		got.fingerprint(&b)
		if b.String() != want.fingerprint() {
			t.Fatalf("trial %d: energy lines\n%s\nreference\n%s", trial, b.String(), want.fingerprint())
		}
	}
}
