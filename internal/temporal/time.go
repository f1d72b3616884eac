// Package temporal models time-of-day, the active time intervals (ATIs)
// attached to indoor doors, and the checkpoint sets that drive the
// asynchronous topology updates of the IT-Graph (Liu et al., ICDE 2020,
// Sections I and II).
//
// An ATI is a half-open interval [open, close): a door with ATI
// [8:00, 16:00) is opened at 8:00 and closed at 16:00; the instant 16:00
// itself is closed. A door may carry several ATIs (e.g. a lunch-break
// closure), stored sorted and non-overlapping in a Schedule.
package temporal

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// TimeOfDay is a time within a day, in seconds since midnight. Fractional
// seconds arise from walking-time arithmetic (dist / speed). Values are
// interpreted modulo DaySeconds where a day boundary could be crossed.
type TimeOfDay float64

// DaySeconds is the length of a day.
const DaySeconds TimeOfDay = 24 * 60 * 60

// Clock builds a TimeOfDay from hours, minutes and seconds.
func Clock(h, m, s int) TimeOfDay {
	return TimeOfDay(h*3600 + m*60 + s)
}

// Hours builds a TimeOfDay from a (possibly fractional) hour count.
func Hours(h float64) TimeOfDay { return TimeOfDay(h * 3600) }

// Parse reads "H:MM", "H:MM:SS" or "H" (24-hour clock). "24:00" is
// accepted and denotes end-of-day, used as an ATI close bound.
func Parse(s string) (TimeOfDay, error) {
	parts := strings.Split(strings.TrimSpace(s), ":")
	if len(parts) == 0 || len(parts) > 3 {
		return 0, fmt.Errorf("temporal: cannot parse %q as time of day", s)
	}
	var hms [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return 0, fmt.Errorf("temporal: cannot parse %q as time of day: %v", s, err)
		}
		hms[i] = v
	}
	h, m, sec := hms[0], hms[1], hms[2]
	if h < 0 || h > 24 || m < 0 || m > 59 || sec < 0 || sec > 59 {
		return 0, fmt.Errorf("temporal: %q out of range", s)
	}
	t := Clock(h, m, sec)
	if t > DaySeconds {
		return 0, fmt.Errorf("temporal: %q beyond 24:00", s)
	}
	return t, nil
}

// MustParse is Parse that panics on error, for constants in tests,
// examples and embedded datasets.
func MustParse(s string) TimeOfDay {
	t, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return t
}

// String renders the time as H:MM or H:MM:SS (seconds only when nonzero),
// matching the paper's notation, e.g. "8:00" and "23:30".
func (t TimeOfDay) String() string {
	var buf [32]byte
	return string(t.AppendClock(buf[:0]))
}

// AppendClock appends String's rendering of t to dst and returns the
// extended slice.
func (t TimeOfDay) AppendClock(dst []byte) []byte {
	sec := float64(t)
	if sec < 0 {
		dst = append(dst, '-')
		sec = -sec
	}
	total := int(math.Round(sec))
	h, m, s := total/3600, (total/60)%60, total%60
	dst = strconv.AppendInt(dst, int64(h), 10)
	dst = appendTwoDigits(append(dst, ':'), m)
	if s != 0 {
		dst = appendTwoDigits(append(dst, ':'), s)
	}
	return dst
}

// appendTwoDigits appends v as fmt's %02d does: zero-padded to two
// digits, and unpadded when the sign or the digits already fill them.
func appendTwoDigits(dst []byte, v int) []byte {
	if v >= 0 && v < 10 {
		return append(dst, '0', byte('0'+v))
	}
	return strconv.AppendInt(dst, int64(v), 10)
}

// Mod returns t reduced into [0, DaySeconds). A t already in range,
// -0 included, is returned as it is, which is what math.Mod returns
// for it; only other values pay for the division.
func (t TimeOfDay) Mod() TimeOfDay {
	if t >= 0 && t < DaySeconds {
		return t
	}
	v := math.Mod(float64(t), float64(DaySeconds))
	if v < 0 {
		v += float64(DaySeconds)
	}
	return TimeOfDay(v)
}

// Valid reports whether t lies in [0, 24:00].
func (t TimeOfDay) Valid() bool { return t >= 0 && t <= DaySeconds }

// Interval is one active time interval [Open, Close). Open < Close must
// hold; wrap-around hours (e.g. a bar open 22:00–2:00) are represented as
// two intervals by Schedule normalisation helpers.
type Interval struct {
	Open  TimeOfDay `json:"open"`
	Close TimeOfDay `json:"close"`
}

// NewInterval validates and returns [open, close).
func NewInterval(open, close TimeOfDay) (Interval, error) {
	if !open.Valid() || !close.Valid() {
		return Interval{}, fmt.Errorf("temporal: interval bounds [%v, %v) out of day range", open, close)
	}
	if open >= close {
		return Interval{}, fmt.Errorf("temporal: interval open %v not before close %v", open, close)
	}
	return Interval{Open: open, Close: close}, nil
}

// MustInterval is NewInterval that panics on error.
func MustInterval(open, close TimeOfDay) Interval {
	iv, err := NewInterval(open, close)
	if err != nil {
		panic(err)
	}
	return iv
}

// ParseInterval reads "[8:00, 16:00)" or "8:00-16:00".
func ParseInterval(s string) (Interval, error) {
	raw := strings.TrimSpace(s)
	raw = strings.TrimPrefix(raw, "[")
	raw = strings.TrimSuffix(raw, ")")
	var a, b string
	if i := strings.IndexAny(raw, ",-"); i >= 0 {
		a, b = raw[:i], raw[i+1:]
	} else {
		return Interval{}, fmt.Errorf("temporal: cannot parse interval %q", s)
	}
	open, err := Parse(a)
	if err != nil {
		return Interval{}, err
	}
	close, err := Parse(b)
	if err != nil {
		return Interval{}, err
	}
	return NewInterval(open, close)
}

// Contains reports whether t lies in [Open, Close).
func (iv Interval) Contains(t TimeOfDay) bool { return t >= iv.Open && t < iv.Close }

// Duration returns the interval length in seconds.
func (iv Interval) Duration() TimeOfDay { return iv.Close - iv.Open }

// Overlaps reports whether two intervals share any instant.
func (iv Interval) Overlaps(o Interval) bool { return iv.Open < o.Close && o.Open < iv.Close }

// Abuts reports whether o starts exactly where iv ends or vice versa.
func (iv Interval) Abuts(o Interval) bool { return iv.Close == o.Open || o.Close == iv.Open }

// String renders the paper notation "[8:00, 16:00)".
func (iv Interval) String() string {
	return fmt.Sprintf("[%v, %v)", iv.Open, iv.Close)
}
