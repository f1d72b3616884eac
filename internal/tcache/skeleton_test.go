package tcache

import (
	"cmp"
	"slices"
	"sync"
	"testing"

	"indoorpath/internal/core"
	"indoorpath/internal/model"
	"indoorpath/internal/temporal"
)

func famEntry(open, close temporal.TimeOfDay) *FamilyEntry {
	return &FamilyEntry{
		Window: temporal.Interval{Open: open, Close: close},
		Fam: &core.SkeletonFamily{
			Window: temporal.Interval{Open: open, Close: close},
			Chains: []*core.Skeleton{{Doors: []model.DoorID{1}, Partitions: []model.PartitionID{0, 1}, Legs: []float64{0}}},
		},
	}
}

func TestStoreFamilyProbe(t *testing.T) {
	s := NewStore(0)
	k := key(1, 2)
	if _, kind := s.ProbeFamily(k, 100); kind != MissFamilyAbsent {
		t.Fatalf("empty store probe = %v, want MissFamilyAbsent", kind)
	}
	if !s.InsertFamily(k, famEntry(1000, 2000)) {
		t.Fatal("insert refused")
	}
	if !s.InsertFamily(k, famEntry(3000, 4000)) {
		t.Fatal("second slot insert refused")
	}
	if fe, kind := s.ProbeFamily(k, 1500); kind != MissNone || fe.Window.Open != 1000 {
		t.Fatalf("probe(1500) = %v/%v, want first family", fe, kind)
	}
	if fe, kind := s.ProbeFamily(k, 3000); kind != MissNone || fe.Window.Open != 3000 {
		t.Fatalf("probe(3000) = %v/%v, want second family", fe, kind)
	}
	if _, kind := s.ProbeFamily(k, 2500); kind != MissOutsideWindows {
		t.Fatalf("probe(2500) = %v, want MissOutsideWindows", kind)
	}
	if _, kind := s.ProbeFamily(key(9, 9), 1500); kind != MissFamilyAbsent {
		t.Fatalf("unknown pair probe, want MissFamilyAbsent")
	}
	if s.FamLen() != 2 {
		t.Fatalf("FamLen = %d, want 2", s.FamLen())
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d: families must not count as point windows", s.Len())
	}
}

func TestStoreFamilyOverlapAndEpoch(t *testing.T) {
	s := NewStore(0)
	k := key(1, 2)
	if !s.InsertFamily(k, famEntry(1000, 2000)) {
		t.Fatal("insert refused")
	}
	// Overlapping slot: first-in wins.
	if s.InsertFamily(k, famEntry(1500, 2500)) {
		t.Fatal("overlapping family must be dropped")
	}
	if s.InsertFamily(k, famEntry(0, 0)) || s.InsertFamily(k, nil) {
		t.Fatal("degenerate families must be dropped")
	}
}

func TestStoreFamilyEviction(t *testing.T) {
	s := NewStore(4)
	for i := 0; i < 10; i++ {
		if !s.InsertFamily(key(i, i+1), famEntry(0, 1000)) {
			t.Fatalf("insert %d refused", i)
		}
	}
	if s.FamLen() > 4 {
		t.Fatalf("FamLen = %d exceeds cap 4", s.FamLen())
	}
	if got := s.FamEvictions(); got != 6 {
		t.Fatalf("FamEvictions = %d, want 6", got)
	}
	// Point-window capacity is budgeted independently: families at cap
	// must not force window evictions or vice versa.
	for i := 0; i < 4; i++ {
		if !s.Insert(key(0, 1), pkey(float64(i)), entry(temporal.TimeOfDay(i*2000), temporal.TimeOfDay(i*2000+1000))) {
			t.Fatalf("window insert %d refused", i)
		}
	}
	if s.Evictions() != 0 {
		t.Fatal("family pressure leaked into window evictions")
	}

	// One hot pair past the cap always keeps its newest family.
	hot := NewStore(2)
	k := key(1, 2)
	for i := 0; i < 6; i++ {
		open := temporal.TimeOfDay(i * 2000)
		if !hot.InsertFamily(k, famEntry(open, open+1000)) {
			t.Fatalf("hot insert %d refused", i)
		}
		if _, kind := hot.ProbeFamily(k, open+500); kind != MissNone {
			t.Fatalf("newest family %d evicted", i)
		}
	}
	if hot.FamLen() > 2 {
		t.Fatalf("hot FamLen = %d exceeds cap", hot.FamLen())
	}
}

// collect gathers one coverage walk (Coverage or SkeletonCoverage),
// which visits pairs in no particular order, sorted by pair.
func collect(walk func(func(PairCoverage))) []PairCoverage {
	var out []PairCoverage
	walk(func(pc PairCoverage) { out = append(out, pc) })
	slices.SortFunc(out, func(a, b PairCoverage) int {
		return cmp.Or(cmp.Compare(a.Key.Src, b.Key.Src), cmp.Compare(a.Key.Tgt, b.Key.Tgt))
	})
	return out
}

func TestStoreFamilySkeletonCoverage(t *testing.T) {
	s := NewStore(0)
	fe := famEntry(0, 3600)
	fe.Fam.Chains = append(fe.Fam.Chains, fe.Fam.Chains[0])
	s.InsertFamily(key(1, 2), fe)
	s.InsertFamily(key(1, 2), famEntry(7200, 10800))
	s.InsertFamily(key(5, 6), famEntry(0, 1800))
	s.Insert(key(9, 9), pkey(0), entry(0, 100))

	cov := collect(s.SkeletonCoverage)
	if len(cov) != 2 {
		t.Fatalf("SkeletonCoverage pairs = %d, want 2 (point-only pair excluded)", len(cov))
	}
	if cov[0].Key != key(1, 2) || cov[0].Families != 2 || cov[0].Windows != 3 || cov[0].CoveredSec != 7200 {
		t.Fatalf("coverage[0] = %+v", cov[0])
	}
	if cov[1].Key != key(5, 6) || cov[1].Families != 1 || cov[1].Windows != 1 || cov[1].CoveredSec != 1800 {
		t.Fatalf("coverage[1] = %+v", cov[1])
	}
	// Window coverage in turn ignores skeleton-only pairs.
	wcov := collect(s.Coverage)
	if len(wcov) != 1 || wcov[0].Key != key(9, 9) {
		t.Fatalf("Coverage = %+v, want the point-only pair alone", wcov)
	}
}

func TestStoreFamilyConcurrency(t *testing.T) {
	s := NewStore(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(w%4, w%4+1)
				open := temporal.TimeOfDay((i % 20) * 4000)
				s.InsertFamily(k, famEntry(open, open+3000))
				s.ProbeFamily(k, open+1500)
			}
		}(w)
	}
	wg.Wait()
	if s.FamLen() > 64 {
		t.Fatalf("FamLen = %d exceeds cap", s.FamLen())
	}
}
