package tcache

import (
	"sync"
	"testing"

	"indoorpath/internal/geom"
	"indoorpath/internal/model"
	"indoorpath/internal/temporal"
)

func key(a, b int) Key { return Key{Src: model.PartitionID(a), Tgt: model.PartitionID(b)} }

func pkey(x float64) PointKey {
	return PointKey{Src: geom.Pt(x, 0, 0), Tgt: geom.Pt(x+1, 0, 0), Speed: 1.39}
}

func entry(open, close temporal.TimeOfDay) *Entry {
	return &Entry{
		Window:     temporal.Interval{Open: open, Close: close},
		Doors:      []model.DoorID{1},
		Partitions: []model.PartitionID{0, 1},
		Length:     10,
		Dists:      []float64{5},
	}
}

func TestStoreLookup(t *testing.T) {
	s := NewStore(0)
	k, pk := key(1, 2), pkey(0)
	if e, _ := s.Probe(k, pk, 100); e != nil {
		t.Fatal("lookup on empty store hit")
	}
	// Three disjoint windows inserted out of order.
	for _, iv := range [][2]temporal.TimeOfDay{{3600, 7200}, {0, 1800}, {10000, 20000}} {
		if !s.Insert(k, pk, entry(iv[0], iv[1])) {
			t.Fatalf("insert [%v, %v) failed", iv[0], iv[1])
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	cases := []struct {
		at   temporal.TimeOfDay
		want temporal.TimeOfDay // Open of the expected window; -1 = miss
	}{
		{0, 0}, {1799, 0}, {1800, -1}, {3599, -1},
		{3600, 3600}, {5000, 3600}, {7200, -1},
		{15000, 10000}, {19999.5, 10000}, {20000, -1}, {86399, -1},
	}
	for _, tc := range cases {
		e, _ := s.Probe(k, pk, tc.at)
		ok := e != nil
		if (tc.want < 0) == ok {
			t.Fatalf("Probe(%v): hit=%v, want hit=%v", tc.at, ok, tc.want >= 0)
		}
		if ok && e.Window.Open != tc.want {
			t.Fatalf("Probe(%v) window opens %v, want %v", tc.at, e.Window.Open, tc.want)
		}
	}
	// Other point families and buckets stay separate.
	if e, _ := s.Probe(k, pkey(9), 100); e != nil {
		t.Fatal("different point key hit")
	}
	if e, _ := s.Probe(key(2, 1), pk, 100); e != nil {
		t.Fatal("different bucket hit")
	}
	// Speed is part of the family identity.
	pk2 := pk
	pk2.Speed = 2.0
	if e, _ := s.Probe(k, pk2, 100); e != nil {
		t.Fatal("different speed hit")
	}
}

func TestStoreOverlapDropped(t *testing.T) {
	s := NewStore(0)
	k, pk := key(1, 2), pkey(0)
	if !s.Insert(k, pk, entry(1000, 2000)) {
		t.Fatal("first insert failed")
	}
	for _, iv := range [][2]temporal.TimeOfDay{{1000, 2000}, {500, 1001}, {1999, 3000}, {1200, 1300}} {
		if s.Insert(k, pk, entry(iv[0], iv[1])) {
			t.Fatalf("overlapping [%v, %v) was stored", iv[0], iv[1])
		}
	}
	// Abutting windows are disjoint and fine.
	if !s.Insert(k, pk, entry(2000, 2500)) || !s.Insert(k, pk, entry(500, 1000)) {
		t.Fatal("abutting windows rejected")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	// Degenerate windows are refused.
	if s.Insert(k, pk, entry(3000, 3000)) || s.Insert(k, pk, nil) {
		t.Fatal("degenerate insert accepted")
	}
}

func TestStoreEviction(t *testing.T) {
	s := NewStore(4)
	// Five OD buckets, one window each: eviction must shed whole buckets
	// but never the one just written.
	for i := 0; i < 5; i++ {
		k := key(i, i+1)
		if !s.Insert(k, pkey(0), entry(0, 1000)) {
			t.Fatalf("insert %d failed", i)
		}
		if s.Len() > 4 {
			t.Fatalf("Len = %d beyond capacity", s.Len())
		}
		if e, _ := s.Probe(k, pkey(0), 500); e == nil {
			t.Fatalf("entry %d evicted immediately after insert", i)
		}
	}
	// A hot single bucket larger than the capacity keeps its newest.
	hot := NewStore(2)
	k := key(9, 9)
	for i := 0; i < 6; i++ {
		open := temporal.TimeOfDay(i * 1000)
		if !hot.Insert(k, pkey(0), entry(open, open+500)) {
			t.Fatalf("hot insert %d failed", i)
		}
		if hot.Len() > 2 {
			t.Fatalf("hot Len = %d beyond capacity", hot.Len())
		}
		if e, _ := hot.Probe(k, pkey(0), open+100); e == nil {
			t.Fatalf("hot entry %d evicted immediately after insert", i)
		}
	}
}

func TestStoreConcurrency(t *testing.T) {
	// Smoke the lock discipline: concurrent inserts, probes and
	// capacity evictions over a small store (meaningful under -race).
	s := NewStore(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(w%3, i%5)
				open := temporal.TimeOfDay((i % 20) * 4000)
				s.Insert(k, pkey(float64(w)), entry(open, open+3000))
				s.Probe(k, pkey(float64(w)), open+1500)
			}
		}(w)
	}
	wg.Wait()
	if s.Len() > 64 {
		t.Fatalf("Len = %d beyond capacity", s.Len())
	}
}

func TestStoreSizeAccounting(t *testing.T) {
	s := NewStore(100)
	for i := 0; i < 10; i++ {
		for j := 0; j < 3; j++ {
			open := temporal.TimeOfDay(j * 2000)
			s.Insert(key(i, i), pkey(0), entry(open, open+1000))
		}
	}
	if s.Len() != 30 {
		t.Fatalf("Len = %d, want 30", s.Len())
	}
	// Fill far past a tiny capacity and confirm the bound holds.
	tiny := NewStore(3)
	for i := 0; i < 50; i++ {
		tiny.Insert(key(i, 0), pkey(0), entry(0, 1000))
		if got := tiny.Len(); got > 3 {
			t.Fatalf("tiny Len = %d beyond capacity", got)
		}
	}
}

func TestStoreProbeMissKinds(t *testing.T) {
	s := NewStore(0)
	k, pk := key(1, 2), pkey(0)

	// Empty store: the family was never cached.
	if e, mk := s.Probe(k, pk, 100); e != nil || mk != MissFamilyAbsent {
		t.Fatalf("empty store Probe = (%v, %v), want (nil, MissFamilyAbsent)", e, mk)
	}
	if !s.Insert(k, pk, entry(3600, 7200)) {
		t.Fatal("insert failed")
	}

	// Hit inside the stored window.
	if e, mk := s.Probe(k, pk, 5000); e == nil || mk != MissNone {
		t.Fatalf("Probe(5000) = (%v, %v), want hit", e, mk)
	}
	// Family exists, departure outside every window.
	if e, mk := s.Probe(k, pk, 100); e != nil || mk != MissOutsideWindows {
		t.Fatalf("Probe(100) = (%v, %v), want (nil, MissOutsideWindows)", e, mk)
	}
	// Same bucket, different point family: family absent, not
	// outside-windows.
	if e, mk := s.Probe(k, pkey(9), 5000); e != nil || mk != MissFamilyAbsent {
		t.Fatalf("Probe(other family) = (%v, %v), want (nil, MissFamilyAbsent)", e, mk)
	}
	// Different bucket entirely.
	if e, mk := s.Probe(key(2, 1), pk, 5000); e != nil || mk != MissFamilyAbsent {
		t.Fatalf("Probe(other bucket) = (%v, %v), want (nil, MissFamilyAbsent)", e, mk)
	}
}
