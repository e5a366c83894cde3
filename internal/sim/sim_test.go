package sim

import (
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(10, func() { order = append(order, 1) })
	e.At(5, func() { order = append(order, 0) })
	e.At(10, func() { order = append(order, 2) }) // same time: insertion order
	end := e.Run()
	if end != 10 {
		t.Errorf("final time = %d, want 10", end)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("order = %v", order)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("expected panic when scheduling in the past")
		}
	}()
	e.At(5, func() {})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(5, func() { ran++ })
	e.At(15, func() { ran++ })
	e.RunUntil(10)
	if ran != 1 {
		t.Errorf("ran = %d events by t=10, want 1", ran)
	}
	if e.Now() != 10 {
		t.Errorf("now = %d, want 10", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if ran != 2 {
		t.Errorf("ran = %d events total, want 2", ran)
	}
}

func TestCascadedEvents(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		if depth < 100 {
			depth++
			e.After(2, recurse)
		}
	}
	e.At(0, recurse)
	if end := e.Run(); end != 200 {
		t.Errorf("end = %d, want 200", end)
	}
}

func TestThroughputMbps(t *testing.T) {
	e := NewEngine()
	// 128 bits in 49 cycles at 190 MHz: the paper's theoretical GCM
	// single-core figure, 496 Mbps.
	got := e.ThroughputMbps(128, 49)
	if got < 496 || got > 497 {
		t.Errorf("ThroughputMbps = %f, want ~496.3", got)
	}
	if e.ThroughputMbps(128, 0) != 0 {
		t.Error("zero cycles should yield zero throughput")
	}
}

func TestFIFOBasic(t *testing.T) {
	e := NewEngine()
	f := NewWordFIFO(e, 4)
	for i := uint32(0); i < 4; i++ {
		if !f.TryPush(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if f.TryPush(99) {
		t.Error("push into full FIFO succeeded")
	}
	for i := uint32(0); i < 4; i++ {
		w, ok := f.TryPop()
		if !ok || w != i {
			t.Fatalf("pop = %d,%v want %d", w, ok, i)
		}
	}
	if _, ok := f.TryPop(); ok {
		t.Error("pop from empty FIFO succeeded")
	}
	if f.Pushed != 4 || f.Popped != 4 {
		t.Errorf("counters = %d/%d", f.Pushed, f.Popped)
	}
}

func TestFIFOBlockingProducerConsumer(t *testing.T) {
	e := NewEngine()
	f := NewWordFIFO(e, 2)
	const total = 50
	produced, consumed := 0, 0
	var got []uint32

	var produce func()
	produce = func() {
		if produced == total {
			return
		}
		if !f.CanPush(1) {
			f.WhenPushable(1, produce)
			return
		}
		f.TryPush(uint32(produced))
		produced++
		e.After(1, produce)
	}
	var consume func()
	consume = func() {
		if consumed == total {
			return
		}
		if !f.CanPop(1) {
			f.WhenPoppable(1, consume)
			return
		}
		w, _ := f.TryPop()
		got = append(got, w)
		consumed++
		e.After(3, consume) // slower consumer forces backpressure
	}
	e.At(0, produce)
	e.At(0, consume)
	e.Run()
	if consumed != total || produced != total {
		t.Fatalf("produced %d consumed %d", produced, consumed)
	}
	for i, w := range got {
		if w != uint32(i) {
			t.Fatalf("out of order at %d: %d", i, w)
		}
	}
}

func TestFIFOOrderProperty(t *testing.T) {
	// FIFO order is preserved for arbitrary interleavings of push/pop.
	f := func(ops []bool, vals []uint32) bool {
		e := NewEngine()
		fifo := NewWordFIFO(e, 8)
		var pushed, popped []uint32
		vi := 0
		for _, isPush := range ops {
			if isPush && vi < len(vals) {
				if fifo.TryPush(vals[vi]) {
					pushed = append(pushed, vals[vi])
				}
				vi++
			} else {
				if w, ok := fifo.TryPop(); ok {
					popped = append(popped, w)
				}
			}
		}
		for fifo.Len() > 0 {
			w, _ := fifo.TryPop()
			popped = append(popped, w)
		}
		if len(pushed) != len(popped) {
			return false
		}
		for i := range pushed {
			if pushed[i] != popped[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFIFOReset(t *testing.T) {
	e := NewEngine()
	f := NewWordFIFO(e, 4)
	f.TryPush(1)
	f.TryPush(2)
	woke := false
	f.TryPush(3)
	f.TryPush(4)
	f.WhenPushable(1, func() { woke = true })
	f.Reset()
	e.Run()
	if f.Len() != 0 {
		t.Error("reset did not empty FIFO")
	}
	if !woke {
		t.Error("reset did not wake blocked producer")
	}
}

func TestMailboxRendezvous(t *testing.T) {
	e := NewEngine()
	m := NewMailbox128(e)
	v := [4]uint32{1, 2, 3, 4}
	if !m.TryPut(v) {
		t.Fatal("put into empty mailbox failed")
	}
	if m.TryPut(v) {
		t.Fatal("put into full mailbox succeeded")
	}
	var gotVal [4]uint32
	m.WhenTakeable(func() {
		gotVal, _ = m.TryTake()
	})
	e.Run()
	if gotVal != v {
		t.Errorf("take = %v", gotVal)
	}
	if m.Full() {
		t.Error("mailbox should be empty after take")
	}
}

func TestFlag(t *testing.T) {
	e := NewEngine()
	f := NewFlag(e)
	fired := 0
	f.WhenSet(func() { fired++ })
	e.Run()
	if fired != 0 {
		t.Error("waiter fired before Set")
	}
	e.At(e.Now()+5, func() { f.Set() })
	f.WhenSet(func() { fired++ })
	e.Run()
	if fired != 2 {
		t.Errorf("fired = %d, want 2 (both waiters released)", fired)
	}
	// WhenSet on an already-set flag fires immediately.
	f.WhenSet(func() { fired++ })
	e.Run()
	if fired != 3 {
		t.Errorf("fired = %d, want 3", fired)
	}
}

func TestWheelHeapSameCycleOrdering(t *testing.T) {
	// An event scheduled far ahead (heap) and one scheduled later but into
	// the near-future wheel at the same timestamp must still run in
	// insertion order.
	e := NewEngine()
	var order []int
	e.At(300, func() { order = append(order, 0) }) // 300-0 >= wheel window: heap
	e.At(100, func() { order = append(order, -1) })
	e.Step() // now = 100; 300 is now inside the wheel window
	e.At(300, func() { order = append(order, 1) })
	e.At(300, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 4 || order[0] != -1 || order[1] != 0 || order[2] != 1 || order[3] != 2 {
		t.Errorf("order = %v, want [-1 0 1 2]", order)
	}
}

func TestFarFutureScheduling(t *testing.T) {
	e := NewEngine()
	var at []Time
	for _, d := range []Time{1, 255, 256, 1000, 100000} {
		e.After(d, func() { at = append(at, e.Now()) })
	}
	e.Run()
	want := []Time{1, 255, 256, 1000, 100000}
	if len(at) != len(want) {
		t.Fatalf("ran %d events, want %d", len(at), len(want))
	}
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("event %d ran at %d, want %d", i, at[i], want[i])
		}
	}
}

func TestNextAtAndTryAdvance(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextAt(); ok {
		t.Error("NextAt on empty engine reported an event")
	}
	if !e.TryAdvance(50) {
		t.Error("TryAdvance with empty queue refused")
	}
	if e.Now() != 50 {
		t.Errorf("now = %d, want 50", e.Now())
	}
	e.At(60, func() {})
	if n, ok := e.NextAt(); !ok || n != 60 {
		t.Errorf("NextAt = %d,%v want 60,true", n, ok)
	}
	if e.TryAdvance(60) {
		t.Error("TryAdvance onto a pending event succeeded")
	}
	if !e.TryAdvance(59) {
		t.Error("TryAdvance short of the pending event refused")
	}
	if e.TryAdvance(10) {
		t.Error("TryAdvance into the past succeeded")
	}
}

func TestCanInline(t *testing.T) {
	e := NewEngine()
	if !e.CanInline() {
		t.Error("CanInline refused on an empty queue")
	}
	// Later events, in the wheel and in the heap, do not interleave.
	e.After(1, func() {})
	e.At(wheelSize+40, func() {})
	if !e.CanInline() {
		t.Error("CanInline refused with only later events pending")
	}
	// An event in the current cycle's wheel bucket does.
	e.After(0, func() {})
	if e.CanInline() {
		t.Error("CanInline allowed with an event in the current wheel bucket")
	}
	e.Run()

	// A heap event due at now does too: two far events at the same cycle
	// both sit in the heap, and while the first runs the second is the
	// heap top at now, with the current wheel bucket empty.
	e = NewEngine()
	far := Time(wheelSize + 44)
	checked := false
	e.At(far, func() {
		if e.CanInline() {
			t.Error("CanInline allowed with the heap top due at now")
		}
		checked = true
	})
	e.At(far, func() {
		if !e.CanInline() {
			t.Error("CanInline refused once the last event of the cycle runs")
		}
	})
	e.Run()
	if !checked {
		t.Fatal("heap-top case did not run")
	}

	// Compat keeps every continuation on the event queue.
	e = NewEngine()
	e.Compat = true
	if e.CanInline() {
		t.Error("CanInline allowed under Compat")
	}
}

func TestWaitersClear(t *testing.T) {
	e := NewEngine()
	w := NewWaiters(e)
	ran := 0
	w.Park(func() { ran++ })
	w.Park(func() { ran++ })
	w.Clear()
	if w.Len() != 0 {
		t.Fatalf("Len after Clear = %d", w.Len())
	}
	w.Release()
	w.Park(func() { ran += 10 })
	w.Release()
	e.Run()
	if ran != 10 {
		t.Errorf("ran = %d, want only the waiter parked after Clear", ran)
	}
}

func TestTryAdvanceHonorsRunUntilHorizon(t *testing.T) {
	// A batching component must not advance past the RunUntil deadline.
	e := NewEngine()
	reached := Time(0)
	var batch func()
	batch = func() {
		for e.TryAdvance(e.Now() + 2) {
			reached = e.Now()
			if reached > 1000 {
				t.Fatal("runaway batch")
			}
		}
		if reached < 10 {
			e.After(2, batch)
		}
	}
	e.At(0, batch)
	e.RunUntil(10)
	if reached != 10 {
		t.Errorf("batch reached %d, want exactly the deadline 10", reached)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk = e.NewTicker(func() {
		count++
		if count < 5 {
			tk.After(3)
		}
	})
	tk.At(1)
	end := e.Run()
	if count != 5 || end != 13 {
		t.Errorf("count=%d end=%d, want 5 at t=13", count, end)
	}
}

func TestFIFOBulkPushReadySchedule(t *testing.T) {
	// A bulk-pushed burst becomes poppable word by word on the reference
	// one-word-per-cycle schedule.
	e := NewEngine()
	f := NewWordFIFO(e, 8)
	e.At(10, func() { f.BulkPush([]uint32{1, 2, 3, 4}, 10, 1) })
	var popped []Time
	e.At(10, func() {
		var drain func()
		drain = func() {
			for {
				if _, ok := f.TryPop(); !ok {
					break
				}
				popped = append(popped, e.Now())
			}
			if len(popped) < 4 {
				f.WhenPoppable(1, drain)
			}
		}
		drain()
	})
	e.Run()
	want := []Time{10, 11, 12, 13}
	if len(popped) != 4 {
		t.Fatalf("popped %d words, want 4", len(popped))
	}
	for i := range want {
		if popped[i] != want[i] {
			t.Errorf("word %d popped at %d, want %d", i, popped[i], want[i])
		}
	}
	if !f.CanPush(8) {
		t.Error("drained FIFO should have full capacity")
	}
}

func TestFIFOBulkPopCooling(t *testing.T) {
	// Bulk-popped slots free on the reference schedule: a pusher blocked on
	// the cooling space wakes exactly when the words would have drained.
	e := NewEngine()
	f := NewWordFIFO(e, 4)
	for i := uint32(0); i < 4; i++ {
		f.TryPush(i)
	}
	e.At(20, func() {
		if !f.CanPopSchedule(4, 20, 1) {
			t.Error("full FIFO should satisfy the drain schedule")
		}
		got := f.BulkPop(nil, 4, 20, 1)
		if len(got) != 4 || got[0] != 0 || got[3] != 3 {
			t.Errorf("BulkPop = %v", got)
		}
	})
	var pushedAt Time
	e.At(20, func() {
		var try func()
		try = func() {
			if f.CanPush(4) {
				pushedAt = e.Now()
				return
			}
			f.WhenPushable(4, try)
		}
		try()
	})
	e.Run()
	// Slot 3 cools until cycle 23: pushing 4 words is first possible then.
	if pushedAt != 23 {
		t.Errorf("pusher woke at %d, want 23", pushedAt)
	}
}
