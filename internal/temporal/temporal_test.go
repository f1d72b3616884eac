package temporal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParse(t *testing.T) {
	tests := []struct {
		in      string
		want    TimeOfDay
		wantErr bool
	}{
		{"8:00", Clock(8, 0, 0), false},
		{"23:30", Clock(23, 30, 0), false},
		{"0:00", 0, false},
		{"24:00", DaySeconds, false},
		{"6:30:15", Clock(6, 30, 15), false},
		{" 12:00 ", Clock(12, 0, 0), false},
		{"9", Clock(9, 0, 0), false},
		{"25:00", 0, true},
		{"12:60", 0, true},
		{"24:01", 0, true},
		{"-1:00", 0, true},
		{"abc", 0, true},
		{"1:2:3:4", 0, true},
	}
	for _, tc := range tests {
		t.Run(tc.in, func(t *testing.T) {
			got, err := Parse(tc.in)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Parse(%q) err = %v, wantErr=%v", tc.in, err, tc.wantErr)
			}
			if err == nil && got != tc.want {
				t.Errorf("Parse(%q) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{"0:00", "8:00", "12:34", "23:59", "6:30:15"} {
		got := MustParse(s).String()
		if got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
	if Clock(24, 0, 0).String() != "24:00" {
		t.Errorf("24:00 renders as %q", Clock(24, 0, 0).String())
	}
}

// sprintfClock is the fmt rendering String had before AppendClock:
// the reference AppendClock must reproduce byte for byte.
func sprintfClock(t TimeOfDay) string {
	sec := float64(t)
	neg := ""
	if sec < 0 {
		neg, sec = "-", -sec
	}
	total := int(math.Round(sec))
	h, m, s := total/3600, (total/60)%60, total%60
	if s == 0 {
		return fmt.Sprintf("%s%d:%02d", neg, h, m)
	}
	return fmt.Sprintf("%s%d:%02d:%02d", neg, h, m, s)
}

// TestAppendClockMatchesSprintf holds AppendClock (and so String) to
// the fmt rendering across the day, fractional and negative instants,
// multi-day and huge values, and the non-finite ones.
func TestAppendClockMatchesSprintf(t *testing.T) {
	values := []TimeOfDay{
		0, 0.4, 0.5, 1.5, 59.5, 599.49, 3599.5, 35999.5, DaySeconds, DaySeconds + 1,
		-0.4, -0.5, -1, -61, -3600, -86399.5, 1e6, 1e12, 1e18, 1e300, -1e300,
		TimeOfDay(math.Inf(1)), TimeOfDay(math.Inf(-1)), TimeOfDay(math.NaN()),
		TimeOfDay(math.Copysign(0, -1)), TimeOfDay(math.MaxInt64), TimeOfDay(math.MinInt64),
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		values = append(values, TimeOfDay((rng.Float64()-0.1)*3*float64(DaySeconds)))
	}
	for _, v := range values {
		want := sprintfClock(v)
		if got := string(v.AppendClock([]byte("x"))); got != "x"+want {
			t.Fatalf("AppendClock(%v) = %q, want %q", float64(v), got, "x"+want)
		}
		if got := v.String(); got != want {
			t.Fatalf("String(%v) = %q, want %q", float64(v), got, want)
		}
	}
}

func TestMod(t *testing.T) {
	if got := (DaySeconds + Clock(1, 30, 0)).Mod(); got != Clock(1, 30, 0) {
		t.Errorf("Mod overflow = %v", got)
	}
	if got := TimeOfDay(-3600).Mod(); got != Clock(23, 0, 0) {
		t.Errorf("Mod negative = %v", got)
	}
	if got := Clock(12, 0, 0).Mod(); got != Clock(12, 0, 0) {
		t.Errorf("Mod identity = %v", got)
	}
}

// modByMathMod is Mod without its in-range fast path.
func modByMathMod(t TimeOfDay) TimeOfDay {
	v := math.Mod(float64(t), float64(DaySeconds))
	if v < 0 {
		v += float64(DaySeconds)
	}
	return TimeOfDay(v)
}

// TestModMatchesMathMod holds Mod to the math.Mod reduction bit for
// bit: the fast path must return in-range values, -0 included,
// exactly as math.Mod does, and leave every other value to it.
func TestModMatchesMathMod(t *testing.T) {
	below := TimeOfDay(math.Nextafter(float64(DaySeconds), 0))
	values := []TimeOfDay{
		0, TimeOfDay(math.Copysign(0, -1)), DaySeconds, below, -below, DaySeconds + below,
		5e-324, -5e-324, 1, -1, 0.5, -0.5, 43200, -43200, -DaySeconds, 2 * DaySeconds, -3 * DaySeconds,
		1e15, -1e15, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
		TimeOfDay(math.NaN()), TimeOfDay(math.Inf(1)), TimeOfDay(math.Inf(-1)),
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		values = append(values,
			TimeOfDay((rng.Float64()*4-1.5)*float64(DaySeconds)),
			TimeOfDay(math.Float64frombits(rng.Uint64())))
	}
	for _, v := range values {
		got, want := math.Float64bits(float64(v.Mod())), math.Float64bits(float64(modByMathMod(v)))
		if got != want {
			t.Fatalf("Mod(%v) = %v (bits %#x), math.Mod path %v (bits %#x)",
				float64(v), float64(v.Mod()), got, float64(modByMathMod(v)), want)
		}
	}
}

func TestIntervalBasics(t *testing.T) {
	iv := MustInterval(Clock(8, 0, 0), Clock(16, 0, 0))
	if !iv.Contains(Clock(8, 0, 0)) {
		t.Error("open bound is inclusive")
	}
	if iv.Contains(Clock(16, 0, 0)) {
		t.Error("close bound is exclusive")
	}
	if !iv.Contains(Clock(12, 0, 0)) {
		t.Error("midday should be contained")
	}
	if iv.Duration() != Clock(8, 0, 0) {
		t.Errorf("Duration = %v", iv.Duration())
	}
	if iv.String() != "[8:00, 16:00)" {
		t.Errorf("String = %q", iv.String())
	}
	if _, err := NewInterval(Clock(16, 0, 0), Clock(8, 0, 0)); err == nil {
		t.Error("inverted interval must fail")
	}
	if _, err := NewInterval(Clock(8, 0, 0), Clock(8, 0, 0)); err == nil {
		t.Error("empty interval must fail")
	}
	if _, err := NewInterval(-1, Clock(8, 0, 0)); err == nil {
		t.Error("negative bound must fail")
	}
}

func TestParseInterval(t *testing.T) {
	iv, err := ParseInterval("[8:00, 16:00)")
	if err != nil || iv.Open != Clock(8, 0, 0) || iv.Close != Clock(16, 0, 0) {
		t.Fatalf("ParseInterval = %v, %v", iv, err)
	}
	iv, err = ParseInterval("6:30-23:00")
	if err != nil || iv.Open != Clock(6, 30, 0) {
		t.Fatalf("dash form = %v, %v", iv, err)
	}
	if _, err := ParseInterval("junk"); err == nil {
		t.Error("expected parse error")
	}
}

func TestIntervalOverlapAbut(t *testing.T) {
	a := MustInterval(Clock(8, 0, 0), Clock(12, 0, 0))
	b := MustInterval(Clock(12, 0, 0), Clock(16, 0, 0))
	c := MustInterval(Clock(10, 0, 0), Clock(14, 0, 0))
	if a.Overlaps(b) {
		t.Error("abutting intervals do not overlap")
	}
	if !a.Abuts(b) || !b.Abuts(a) {
		t.Error("Abuts should hold both ways")
	}
	if !a.Overlaps(c) || !c.Overlaps(b) {
		t.Error("overlap not detected")
	}
}

func TestScheduleNormalisation(t *testing.T) {
	s, err := NewSchedule(
		MustInterval(Clock(18, 0, 0), Clock(23, 0, 0)),
		MustInterval(Clock(5, 0, 0), Clock(12, 0, 0)),
		MustInterval(Clock(11, 0, 0), Clock(17, 0, 0)), // overlaps the 5-12
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 {
		t.Fatalf("normalised to %d intervals: %v", len(s), s)
	}
	if s[0].Open != Clock(5, 0, 0) || s[0].Close != Clock(17, 0, 0) {
		t.Errorf("merged head = %v", s[0])
	}
	if !s.IsNormal() {
		t.Error("result must be normal")
	}
	// Abutting intervals merge too.
	s2 := MustSchedule(
		MustInterval(Clock(8, 0, 0), Clock(12, 0, 0)),
		MustInterval(Clock(12, 0, 0), Clock(16, 0, 0)),
	)
	if len(s2) != 1 || s2[0].Close != Clock(16, 0, 0) {
		t.Errorf("abutting merge = %v", s2)
	}
}

func TestScheduleContains(t *testing.T) {
	// Paper Table I: d9 has 〈[0:00, 6:00), [6:30, 23:00)〉.
	s := MustSchedule(
		MustInterval(0, Clock(6, 0, 0)),
		MustInterval(Clock(6, 30, 0), Clock(23, 0, 0)),
	)
	tests := []struct {
		at   string
		want bool
	}{
		{"0:00", true}, {"5:59", true}, {"6:00", false}, {"6:15", false},
		{"6:30", true}, {"12:00", true}, {"22:59", true}, {"23:00", false},
		{"23:30", false},
	}
	for _, tc := range tests {
		if got := s.Contains(MustParse(tc.at)); got != tc.want {
			t.Errorf("Contains(%s) = %v, want %v", tc.at, got, tc.want)
		}
	}
}

func TestScheduleContainsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		var ivs []Interval
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			a := TimeOfDay(rng.Float64() * float64(DaySeconds-60))
			b := a + TimeOfDay(60+rng.Float64()*20000)
			if b > DaySeconds {
				b = DaySeconds
			}
			ivs = append(ivs, Interval{Open: a, Close: b})
		}
		s := MustSchedule(ivs...)
		for probe := 0; probe < 50; probe++ {
			at := TimeOfDay(rng.Float64() * float64(DaySeconds))
			naive := false
			for _, iv := range ivs {
				if iv.Contains(at) {
					naive = true
					break
				}
			}
			if got := s.Contains(at); got != naive {
				t.Fatalf("trial %d: Contains(%v)=%v, naive=%v, sched=%v raw=%v",
					trial, at, got, naive, s, ivs)
			}
		}
	}
}

func TestScheduleNormalisationIdempotent(t *testing.T) {
	f := func(seeds [6]uint16) bool {
		var ivs []Interval
		for i := 0; i+1 < len(seeds); i += 2 {
			a := TimeOfDay(seeds[i]) * 1.3
			b := a + TimeOfDay(seeds[i+1])*0.7
			a, b = a.Mod(), b.Mod()
			if b <= a {
				a, b = b, a
			}
			if b-a < 1 {
				continue
			}
			ivs = append(ivs, Interval{Open: a, Close: b})
		}
		s1, err := NewSchedule(ivs...)
		if err != nil {
			return false
		}
		s2, err := NewSchedule(s1...)
		if err != nil || len(s1) != len(s2) {
			return false
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				return false
			}
		}
		return s1.IsNormal()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestScheduleNextBoundary(t *testing.T) {
	s := MustSchedule(
		MustInterval(Clock(8, 0, 0), Clock(16, 0, 0)),
		MustInterval(Clock(18, 0, 0), Clock(23, 0, 0)),
	)
	tests := []struct {
		at, want string
		ok       bool
	}{
		{"0:00", "8:00", true},
		{"8:00", "16:00", true},
		{"12:00", "16:00", true},
		{"16:00", "18:00", true},
		{"20:00", "23:00", true},
		{"23:00", "", false},
		{"23:30", "", false},
	}
	for _, tc := range tests {
		got, ok := s.NextBoundary(MustParse(tc.at))
		if ok != tc.ok {
			t.Fatalf("NextBoundary(%s) ok=%v want %v", tc.at, ok, tc.ok)
		}
		if ok && got != MustParse(tc.want) {
			t.Errorf("NextBoundary(%s) = %v, want %s", tc.at, got, tc.want)
		}
	}
}

func TestScheduleNextOpening(t *testing.T) {
	s := MustSchedule(
		MustInterval(Clock(8, 0, 0), Clock(16, 0, 0)),
		MustInterval(Clock(18, 0, 0), Clock(23, 0, 0)),
	)
	if got, ok := s.NextOpening(Clock(7, 0, 0)); !ok || got != Clock(8, 0, 0) {
		t.Errorf("NextOpening(7:00) = %v,%v", got, ok)
	}
	if got, ok := s.NextOpening(Clock(12, 0, 0)); !ok || got != Clock(12, 0, 0) {
		t.Errorf("NextOpening while open = %v,%v", got, ok)
	}
	if got, ok := s.NextOpening(Clock(17, 0, 0)); !ok || got != Clock(18, 0, 0) {
		t.Errorf("NextOpening(17:00) = %v,%v", got, ok)
	}
	if _, ok := s.NextOpening(Clock(23, 30, 0)); ok {
		t.Error("NextOpening after final close should fail")
	}
	var empty Schedule
	if _, ok := empty.NextOpening(0); ok {
		t.Error("empty schedule never opens")
	}
}

func TestParseSchedule(t *testing.T) {
	s, err := ParseSchedule("〈[0:00, 6:00), [6:30, 23:00)〉")
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 || s[1].Open != Clock(6, 30, 0) {
		t.Errorf("parsed %v", s)
	}
	s2, err := ParseSchedule("[5:00, 23:00)")
	if err != nil || len(s2) != 1 {
		t.Fatalf("single = %v, %v", s2, err)
	}
	if _, err := ParseSchedule("〈[bad)〉"); err == nil {
		t.Error("expected error")
	}
	empty, err := ParseSchedule("〈〉")
	if err != nil || len(empty) != 0 {
		t.Errorf("empty schedule parse = %v, %v", empty, err)
	}
}

func TestScheduleMisc(t *testing.T) {
	if !AlwaysOpen().AlwaysOpenAllDay() {
		t.Error("AlwaysOpen must cover the day")
	}
	if AlwaysOpen().TotalOpen() != DaySeconds {
		t.Error("TotalOpen of AlwaysOpen")
	}
	s := MustSchedule(MustInterval(Clock(8, 0, 0), Clock(16, 0, 0)))
	if s.AlwaysOpenAllDay() {
		t.Error("8-16 is not all day")
	}
	if s.String() != "〈[8:00, 16:00)〉" {
		t.Errorf("String = %q", s.String())
	}
	c := s.Clone()
	c[0].Open = 0
	if s[0].Open == 0 {
		t.Error("Clone must be deep")
	}
	var nilSched Schedule
	if nilSched.Clone() != nil {
		t.Error("nil Clone is nil")
	}
	if nilSched.String() != "〈〉" {
		t.Errorf("nil String = %q", nilSched.String())
	}
	b := s.Boundaries(nil)
	if len(b) != 2 || b[0] != Clock(8, 0, 0) || b[1] != Clock(16, 0, 0) {
		t.Errorf("Boundaries = %v", b)
	}
}

func TestCheckpointSet(t *testing.T) {
	cs := NewCheckpointSet([]TimeOfDay{
		Clock(16, 0, 0), Clock(8, 0, 0), Clock(8, 0, 0), Clock(22, 0, 0),
		0, DaySeconds, // dropped: non-separating
	})
	if cs.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (%v)", cs.Len(), cs.Times())
	}
	if cs.SlotCount() != 4 {
		t.Errorf("SlotCount = %d", cs.SlotCount())
	}
	tests := []struct {
		at   string
		slot int
	}{
		{"0:00", 0}, {"7:59", 0}, {"8:00", 1}, {"12:00", 1},
		{"16:00", 2}, {"21:59", 2}, {"22:00", 3}, {"23:59", 3},
	}
	for _, tc := range tests {
		if got := cs.SlotOf(MustParse(tc.at)); got != tc.slot {
			t.Errorf("SlotOf(%s) = %d, want %d", tc.at, got, tc.slot)
		}
	}
	if s := cs.SlotStart(0); s != 0 {
		t.Errorf("SlotStart(0) = %v", s)
	}
	if e := cs.SlotEnd(3); e != DaySeconds {
		t.Errorf("SlotEnd(last) = %v", e)
	}
	if s := cs.SlotStart(2); s != Clock(16, 0, 0) {
		t.Errorf("SlotStart(2) = %v", s)
	}
	if e := cs.SlotEnd(1); e != Clock(16, 0, 0) {
		t.Errorf("SlotEnd(1) = %v", e)
	}
}

func TestCheckpointPrevNext(t *testing.T) {
	cs := NewCheckpointSet([]TimeOfDay{Clock(8, 0, 0), Clock(16, 0, 0)})
	if _, ok := cs.Prev(Clock(7, 0, 0)); ok {
		t.Error("Prev before first checkpoint should fail")
	}
	if p, ok := cs.Prev(Clock(8, 0, 0)); !ok || p != Clock(8, 0, 0) {
		t.Errorf("Prev(8:00) = %v,%v (checkpoint instant belongs to its slot)", p, ok)
	}
	if p, ok := cs.Prev(Clock(12, 0, 0)); !ok || p != Clock(8, 0, 0) {
		t.Errorf("Prev(12:00) = %v,%v", p, ok)
	}
	if n, ok := cs.Next(Clock(12, 0, 0)); !ok || n != Clock(16, 0, 0) {
		t.Errorf("Next(12:00) = %v,%v", n, ok)
	}
	if _, ok := cs.Next(Clock(16, 0, 0)); ok {
		t.Error("Next at last checkpoint should fail")
	}
	if !cs.Contains(Clock(8, 0, 0)) || cs.Contains(Clock(9, 0, 0)) {
		t.Error("Contains misbehaves")
	}
}

func TestCheckpointSlotConsistency(t *testing.T) {
	f := func(raw [8]uint32) bool {
		ts := make([]TimeOfDay, 0, len(raw))
		for _, r := range raw {
			ts = append(ts, TimeOfDay(r%86400))
		}
		cs := NewCheckpointSet(ts)
		for _, r := range raw {
			at := TimeOfDay(r % 86400).Mod()
			slot := cs.SlotOf(at)
			if !(cs.SlotStart(slot) <= at && at < cs.SlotEnd(slot)) {
				return false
			}
		}
		// Slots tile the day.
		for i := 0; i < cs.SlotCount(); i++ {
			if cs.SlotStart(i) >= cs.SlotEnd(i) {
				return false
			}
			if i > 0 && cs.SlotEnd(i-1) != cs.SlotStart(i) {
				return false
			}
		}
		return cs.SlotStart(0) == 0 && cs.SlotEnd(cs.SlotCount()-1) == DaySeconds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCheckpointUnion(t *testing.T) {
	a := NewCheckpointSet([]TimeOfDay{Clock(8, 0, 0)})
	b := NewCheckpointSet([]TimeOfDay{Clock(16, 0, 0), Clock(8, 0, 0)})
	u := a.Union(b)
	if u.Len() != 2 {
		t.Errorf("Union len = %d", u.Len())
	}
}
