package bufpool

import (
	"math/rand"
	"sync"
	"testing"
)

func TestClasses(t *testing.T) {
	sizes := []int{0, 1, 63, 64, 65, 255, 256, 1024, 4096, 65536, 1 << 20}
	p := New()
	for _, n := range sizes {
		b := p.Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d) returned len %d", n, len(b))
		}
		if cap(b) < n {
			t.Fatalf("Get(%d) returned cap %d", n, cap(b))
		}
		if classForCap(cap(b)) < 0 {
			t.Fatalf("Get(%d) returned cap %d, not a class size", n, cap(b))
		}
		p.Put(b)
	}
}

// TestReuse pins what a Put-then-Get round trip guarantees. What the
// pool promises is the size class and the ledger: the second Get comes
// back with its class's capacity, the counters add up, and the buffer it
// returns is checked out exactly once (debug mode, so a double issue or
// a double Put would panic). Whether it is the SAME buffer is sync.Pool's
// business — the race detector makes sync.Pool drop a quarter of all Puts
// on purpose — so identity is asserted only where sync.Pool keeps its
// private slot, and a miss must show up in Stats instead.
func TestReuse(t *testing.T) {
	p := New()
	p.SetDebug(true)
	b := p.Get(100)
	b[0] = 0xAB
	first := &b[0]
	p.Put(b)
	c := p.Get(200) // same class (256)
	if len(c) != 200 || cap(c) != 256 {
		t.Fatalf("Get(200) returned len %d cap %d, want 200 of 256", len(c), cap(c))
	}
	reused := &c[0] == first
	if !reused && !raceEnabled {
		// Single-goroutine put-then-get hits sync.Pool's private slot; a
		// miss here means Put dropped the buffer.
		t.Fatalf("Put buffer was not reused")
	}
	if got := p.Outstanding(); got != 1 {
		t.Fatalf("Outstanding = %d with one buffer checked out, want 1", got)
	}
	p.Put(c)
	if got := p.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d after the last Put, want 0", got)
	}
	wantMisses := int64(2)
	if reused {
		wantMisses = 1
	}
	if s := p.Stats(); s.Gets != 2 || s.Puts != 2 || s.Misses != wantMisses || s.Dropped != 0 {
		t.Fatalf("stats = %+v, want 2 gets, 2 puts, %d misses, 0 dropped (reused=%v)", s, wantMisses, reused)
	}
}

func TestOversizeDropped(t *testing.T) {
	p := New()
	p.SetDebug(true)
	b := p.Get(maxClassSize + 1)
	if len(b) != maxClassSize+1 {
		t.Fatalf("oversize Get returned len %d", len(b))
	}
	if got := p.Outstanding(); got != 1 {
		t.Fatalf("Outstanding = %d before Put, want 1", got)
	}
	p.Put(b)
	if got := p.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d after Put, want 0", got)
	}
	s := p.Stats()
	if s.Oversize != 1 {
		t.Fatalf("Oversize = %d, want 1", s.Oversize)
	}
	// The drop IS the shrink policy: the class chain must not serve the
	// oversize buffer back.
	if s.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", s.Dropped)
	}
}

func TestLeakDetector(t *testing.T) {
	p := New()
	p.SetDebug(true)
	a := p.Get(128)
	b := p.Get(4000)
	if got := p.Outstanding(); got != 2 {
		t.Fatalf("Outstanding = %d, want 2", got)
	}
	p.Put(a)
	if got := p.Outstanding(); got != 1 {
		t.Fatalf("Outstanding = %d after one Put, want 1 (leak of b visible)", got)
	}
	p.Put(b)
	if got := p.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d after both Puts, want 0", got)
	}
}

func TestDoublePutPanics(t *testing.T) {
	p := New()
	p.SetDebug(true)
	b := p.Get(64)
	p.Put(b)
	defer func() {
		if recover() == nil {
			t.Fatal("second Put did not panic")
		}
	}()
	p.Put(b)
}

func TestForeignPutPanics(t *testing.T) {
	p := New()
	p.SetDebug(true)
	defer func() {
		if recover() == nil {
			t.Fatal("Put of a never-issued buffer did not panic in debug mode")
		}
	}()
	p.Put(make([]byte, 256))
}

// TestHammer drives concurrent Get/Put from many goroutines; its real
// teeth are under -race (CI's race job), where it also exercises the
// debug tracking paths.
func TestHammer(t *testing.T) {
	p := New()
	p.SetDebug(true)
	const workers = 8
	const rounds = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			held := make([][]byte, 0, 16)
			for i := 0; i < rounds; i++ {
				if len(held) > 0 && rng.Intn(3) == 0 {
					k := rng.Intn(len(held))
					p.Put(held[k])
					held[k] = held[len(held)-1]
					held = held[:len(held)-1]
					continue
				}
				n := 1 << uint(rng.Intn(18)) // 1B .. 128KiB
				b := p.Get(n)
				if len(b) != n {
					panic("bad len")
				}
				// Touch both ends so races on recycled memory are visible
				// to the detector.
				b[0] = byte(i)
				b[n-1] = byte(i)
				if len(held) < cap(held) {
					held = append(held, b)
				} else {
					p.Put(b)
				}
			}
			for _, b := range held {
				p.Put(b)
			}
		}(int64(w))
	}
	wg.Wait()
	if got := p.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d after drain, want 0", got)
	}
}

// TestGetPutZeroAlloc pins the steady-state cost of the pool itself: a
// warm Get/Put cycle must not allocate.
func TestGetPutZeroAlloc(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	p := New()
	p.SetDebug(false)
	// Prime the class so the measured cycles hit the pool.
	for i := 0; i < 64; i++ {
		p.Put(p.Get(1024))
	}
	allocs := testing.AllocsPerRun(200, func() {
		b := p.Get(1024)
		b[0] = 1
		p.Put(b)
	})
	if allocs != 0 {
		t.Fatalf("warm Get/Put allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkGetPut(b *testing.B) {
	p := New()
	p.SetDebug(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := p.Get(4096)
		buf[0] = byte(i)
		p.Put(buf)
	}
}

func BenchmarkGetPutParallel(b *testing.B) {
	p := New()
	p.SetDebug(false)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			buf := p.Get(1024)
			buf[0] = byte(i)
			i++
			p.Put(buf)
		}
	})
}
