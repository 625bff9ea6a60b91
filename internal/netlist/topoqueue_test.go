package netlist

import (
	"math/rand"
	"testing"
)

// TestTopoQueuePopsInTopologicalOrder pushes random gates of a circuit
// wider than one bitset word, with duplicates, and pops them back: each
// comes out once, in ascending topological position.
func TestTopoQueuePopsInTopologicalOrder(t *testing.T) {
	c := chain(300)
	q, err := c.NewTopoQueue()
	if err != nil {
		t.Fatal(err)
	}
	pos, _ := c.TopoPos()
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		want := map[int]bool{}
		for k := rng.Intn(40); k > 0; k-- {
			id := rng.Intn(len(c.Gates))
			q.Push(id)
			q.Push(id)
			want[id] = true
		}
		last := -1
		for {
			id, ok := q.Pop()
			if !ok {
				break
			}
			if !want[id] {
				t.Fatalf("round %d: popped %d, which is not pending", round, id)
			}
			delete(want, id)
			if pos[id] <= last {
				t.Fatalf("round %d: popped position %d after %d", round, pos[id], last)
			}
			last = pos[id]
		}
		if len(want) != 0 {
			t.Fatalf("round %d: %d gates never popped", round, len(want))
		}
	}
}

// TestTopoQueueForwardPushesAndReset interleaves pops with forward pushes,
// the cone-walk pattern, then abandons a walk midway: Reset must leave
// nothing pending.
func TestTopoQueueForwardPushesAndReset(t *testing.T) {
	c := chain(200)
	q, err := c.NewTopoQueue()
	if err != nil {
		t.Fatal(err)
	}
	fanouts := c.Fanouts()
	q.Push(c.PIs[0])
	walked := 0
	for {
		id, ok := q.Pop()
		if !ok {
			break
		}
		walked++
		for _, fo := range fanouts[id] {
			q.Push(fo)
		}
	}
	if walked != len(c.Gates) {
		t.Fatalf("walk visited %d of %d gates", walked, len(c.Gates))
	}
	q.Push(5)
	q.Push(150)
	q.Reset()
	if id, ok := q.Pop(); ok {
		t.Fatalf("after Reset, popped %d", id)
	}
	q.Push(7)
	if id, ok := q.Pop(); !ok || id != 7 {
		t.Fatalf("after Reset, pushed 7, popped %d (%v)", id, ok)
	}
}
