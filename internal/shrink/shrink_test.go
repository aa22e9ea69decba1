package shrink

import (
	"reflect"
	"runtime"
	"testing"
)

func identity(m map[uint32]int) uintptr { return uintptr(reflect.ValueOf(m).UnsafePointer()) }

// TestDeleteRebuildsAtAQuarterOfThePeak drains a map one key at a time and
// checks that it is rebuilt exactly when the population falls to a quarter
// of its high-water mark, that no entry is lost or changed, and that a
// rebuilt map's mark restarts at its size.
func TestDeleteRebuildsAtAQuarterOfThePeak(t *testing.T) {
	const n = 1000
	m := make(map[uint32]int)
	for i := uint32(0); i < n; i++ {
		m[i] = int(i) * 3
	}
	peak := 0
	want := []int{250, 62, 15, 3} // each a quarter of the last, down to the minPeak floor
	var got []int
	for i := uint32(0); i < n; i++ {
		before := identity(m)
		Delete(&m, &peak, i)
		if identity(m) != before {
			got = append(got, len(m))
			if peak != len(m) {
				t.Fatalf("after the rebuild at %d entries the mark is %d", len(m), peak)
			}
		}
		if len(m) != n-int(i)-1 {
			t.Fatalf("len %d after %d deletes", len(m), i+1)
		}
		for k := i + 1; k < n; k += 97 {
			if m[k] != int(k)*3 {
				t.Fatalf("key %d reads %d after %d deletes", k, m[k], i+1)
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rebuilt at sizes %v, want %v", got, want)
	}
}

// TestDeleteTracksInsertsBetweenDeletes grows the map between deletes:
// the mark must follow the population up, not only its first size.
func TestDeleteTracksInsertsBetweenDeletes(t *testing.T) {
	m := map[uint32]int{0: 0}
	peak := 0
	for i := uint32(1); i <= 400; i++ {
		m[i] = 0
		m[i+1000] = 0
		Delete(&m, &peak, i+1000)
	}
	if peak != 402 {
		t.Fatalf("mark %d, want 402", peak)
	}
}

// TestDeleteSmallMapAllocs pins the common case at zero allocations: a
// table that never held more than minPeak entries is never rebuilt.
func TestDeleteSmallMapAllocs(t *testing.T) {
	m := make(map[uint32]int)
	peak := 0
	for i := uint32(0); i < minPeak; i++ {
		m[i] = 0
	}
	allocs := testing.AllocsPerRun(1000, func() {
		Delete(&m, &peak, 3)
		m[3] = 0
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per delete+insert on a %d-entry map", allocs, minPeak)
	}
}

// TestDrainedMapGivesMemoryBack checks the point of the package: a map
// that held 50 000 entries and was emptied through Delete holds a small
// fraction of the heap the same map emptied by the builtin holds.
func TestDrainedMapGivesMemoryBack(t *testing.T) {
	const n = 50_000
	drained := func(del func(m *map[uint32]int, peak *int, k uint32)) (map[uint32]int, uint64) {
		base := liveHeap()
		m := make(map[uint32]int)
		for i := uint32(0); i < n; i++ {
			m[i] = 0
		}
		peak := 0
		for i := uint32(0); i < n; i++ {
			del(&m, &peak, i)
		}
		h := max(liveHeap(), base)
		return m, h - base
	}
	kept, builtin := drained(func(m *map[uint32]int, _ *int, k uint32) { delete(*m, k) })
	shrunk, held := drained(Delete[uint32, int])
	if len(kept) != 0 || len(shrunk) != 0 {
		t.Fatal("maps not drained")
	}
	if held*10 > builtin {
		t.Fatalf("drained through Delete the map holds %d B; the builtin's %d B", held, builtin)
	}
	runtime.KeepAlive(kept)
	runtime.KeepAlive(shrunk)
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
