package invariant

import (
	"reflect"
	"slices"
	"testing"

	"wearlock/internal/store"
)

func dev(id int, key string, gen, ver uint64) store.DeviceState {
	return store.DeviceState{ID: id, Key: []byte(key), GenCounter: gen, VerCounter: ver}
}

func state(ds ...store.DeviceState) store.State {
	st := store.State{Devices: map[int]store.DeviceState{}}
	for _, d := range ds {
		st.Devices[d.ID] = d
	}
	return st
}

// One fabricated event per clause, plus the clean and legitimate cases
// each clause must let through: stubbing out any one clause fails the
// case that expects it.
func TestCheck(t *testing.T) {
	before := state(dev(0, "k0", 5, 5), dev(1, "k1", 3, 2))
	cases := []struct {
		name string
		ev   Event
		want []Kind
	}{
		{"clean", Event{
			Before:   before,
			After:    state(dev(0, "k0", 7, 7), dev(1, "k1", 3, 2), dev(2, "k2", 1, 1)),
			Accepted: map[int]int{0: 2, 2: 1},
			Acked:    map[int]Floor{0: {7, 7}},
		}, nil},
		{"repaired re-key", Event{
			Before:   before,
			After:    state(dev(0, "k0", 5, 5), dev(1, "fresh", 1, 1)),
			Repaired: []int{1},
			Accepted: map[int]int{1: 1},
		}, nil},
		{"lost device", Event{
			Before: before,
			After:  state(dev(0, "k0", 5, 5)),
		}, []Kind{LostDevice}},
		{"key change without repair", Event{
			Before: before,
			After:  state(dev(0, "k0", 5, 5), dev(1, "other", 9, 9)),
		}, []Kind{KeyChange}},
		{"repair kept key", Event{
			Before:   before,
			After:    state(dev(0, "k0", 5, 5), dev(1, "k1", 3, 2)),
			Repaired: []int{1},
		}, []Kind{RepairKeptKey}},
		{"gen regression", Event{
			Before: before,
			After:  state(dev(0, "k0", 4, 5), dev(1, "k1", 3, 2)),
		}, []Kind{CounterRegression}},
		{"ver regression", Event{
			Before: before,
			After:  state(dev(0, "k0", 5, 4), dev(1, "k1", 3, 2)),
		}, []Kind{CounterRegression}},
		{"acked gen not durable", Event{
			After: state(dev(0, "k0", 4, 6)),
			Acked: map[int]Floor{0: {5, 5}},
		}, []Kind{AckedNotDurable}},
		{"acked ver not durable", Event{
			After: state(dev(0, "k0", 6, 4)),
			Acked: map[int]Floor{0: {5, 5}},
		}, []Kind{AckedNotDurable}},
		{"acked device missing", Event{
			After: state(),
			Acked: map[int]Floor{3: {1, 1}},
		}, []Kind{AckedNotDurable}},
		{"accepted replay", Event{
			Before:   before,
			After:    state(dev(0, "k0", 7, 7), dev(1, "k1", 3, 2)),
			Accepted: map[int]int{0: 3},
		}, []Kind{AcceptedReplay}},
		{"replay across a regression", Event{
			Before:   before,
			After:    state(dev(0, "k0", 5, 3), dev(1, "k1", 3, 2)),
			Accepted: map[int]int{0: 1},
		}, []Kind{CounterRegression, AcceptedReplay}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			vs := Check(c.ev)
			var got []Kind
			for _, v := range vs {
				got = append(got, v.Kind)
			}
			if !slices.Equal(got, c.want) || (vs.Err() == nil) != (len(c.want) == 0) || vs.Count(c.want...) != len(c.want) {
				t.Fatalf("kinds %v, want %v; Err: %v", got, c.want, vs.Err())
			}
		})
	}
}

// Merge is the cluster-wide view: per-counter max under one key, the
// further-advanced record whole across keys.
func TestMerge(t *testing.T) {
	got := Merge(
		state(dev(0, "k", 9, 4), dev(1, "old", 8, 8)),
		state(dev(0, "k", 6, 7), dev(1, "new", 2, 9), dev(2, "k", 1, 1)),
	)
	if want := state(dev(0, "k", 9, 7), dev(1, "new", 2, 9), dev(2, "k", 1, 1)); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged %+v, want %+v", got, want)
	}
}
