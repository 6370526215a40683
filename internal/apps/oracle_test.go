package apps

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// TestOracleSolvesOncePerShape: a hit returns the cached reference
// without a solve, a change of shape solves again, and going back to the
// first shape solves once more (the cache holds one entry).
func TestOracleSolvesOncePerShape(t *testing.T) {
	var o Oracle[[2]int]
	solves := 0
	get := func(a, b int) []float64 {
		return o.Get([2]int{a, b}, func() []float64 {
			solves++
			return []float64{float64(a), float64(b)}
		})
	}
	first := get(1, 2)
	if again := get(1, 2); &again[0] != &first[0] || solves != 1 {
		t.Fatalf("repeat of a shape solved again (%d solves) or returned a different slice", solves)
	}
	if got := get(3, 4); got[0] != 3 || got[1] != 4 || solves != 2 {
		t.Fatalf("new shape: got %v after %d solves, want [3 4] after 2", got, solves)
	}
	if got := get(1, 2); got[0] != 1 || solves != 3 {
		t.Fatalf("back to the first shape: got %v after %d solves, want [1 2] after 3", got, solves)
	}
}

// TestOracleKeepsOnlySmallReferences: a reference over the size bound is
// solved on every call and never retained, so a daemon that validated
// one large job does not keep its answer for the rest of its life.
func TestOracleKeepsOnlySmallReferences(t *testing.T) {
	var o Oracle[int]
	solves := 0
	big := func() []float64 { solves++; return make([]float64, oracleMaxValues+1) }
	o.Get(1, big)
	o.Get(1, big)
	if solves != 2 || o.ref != nil {
		t.Fatalf("reference over the bound: %d solves, kept=%v; want 2 solves, nothing kept", solves, o.ref != nil)
	}
}

// TestOracleConcurrentMisses races validators of two shapes on one
// cache: every caller must get its own shape's answer, and the cache
// stays consistent (run under -race).
func TestOracleConcurrentMisses(t *testing.T) {
	var o Oracle[int]
	var solves atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % 2
				ref := o.Get(k, func() []float64 {
					solves.Add(1)
					return []float64{float64(k), math.Sqrt(float64(k))}
				})
				if ref[0] != float64(k) || ref[1] != math.Sqrt(float64(k)) {
					t.Errorf("shape %d got %v", k, ref)
					return
				}
			}
		}()
	}
	wg.Wait()
	if solves.Load() == 0 {
		t.Fatal("no solve ran")
	}
}
