package store

import (
	"errors"
	"sync"
	"testing"
)

// A steady-state commit — CommitAsync, Wait, Release — allocates
// nothing: the record is copied into the committer's reused queue and
// batch entries, the handle is the one the last commit released, and the
// frame is encoded into the retained batch buffer.
func TestCommitAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const ceiling = 0
	s, err := Open(Options{Dir: t.TempDir(), NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d := DeviceState{ID: 3, Key: []byte("0123456789abcdef0123456789abcdef"), GenCounter: 1}
	sv := ServiceState{Seq: 1}
	commit := func() {
		d.GenCounter++
		sv.Seq++
		h := s.CommitAsync(&d, &sv)
		if err := h.Wait(); err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	for i := 0; i < 10; i++ {
		commit()
	}
	if allocs := testing.AllocsPerRun(200, commit); allocs > ceiling {
		t.Errorf("steady-state commit allocated %.1f objects, ceiling %d", allocs, ceiling)
	} else {
		t.Logf("%.1f allocations per steady-state commit", allocs)
	}
}

// TestReusedHandlesResolveOnlyTheirCommit runs many devices' commits
// through handles that are released and reused while Close races them
// (run with -race -count=10). Every handle must resolve exactly once and
// only for its own commit: a nil Wait means that commit's record is in
// the merged state and its sequence number is its own, never one another
// waiter saw; a failed Wait comes only from the closed store.
func TestReusedHandlesResolveOnlyTheirCommit(t *testing.T) {
	const devices, commits = 16, 200
	s, err := Open(Options{Dir: t.TempDir(), NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		seqs = make(map[uint64]int) // record seq -> device that saw it
		wg   sync.WaitGroup
	)
	closing := make(chan struct{})
	for id := 0; id < devices; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			key := []byte{byte(id), 1, 2, 3}
			for gen := uint64(1); gen <= commits; gen++ {
				if gen == commits/2 && id == 0 {
					close(closing)
				}
				h := s.CommitAsync(&DeviceState{ID: id, Key: key, GenCounter: gen}, nil)
				err := h.Wait()
				if err != nil {
					if !errors.Is(err, errClosed) {
						t.Errorf("device %d commit %d: %v", id, gen, err)
					}
					h.Release()
					return
				}
				seq := h.Seq()
				got, ok := s.Device(id)
				if !ok || got.GenCounter < gen {
					t.Errorf("device %d: commit %d resolved before it was applied (merged %+v)", id, gen, got)
				}
				mu.Lock()
				if other, dup := seqs[seq]; dup {
					t.Errorf("seq %d resolved device %d's commit and device %d's", seq, other, id)
				}
				seqs[seq] = id
				mu.Unlock()
				h.Release()
			}
		}(id)
	}
	<-closing
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(seqs) == 0 {
		t.Fatal("no commit resolved before Close")
	}
}
