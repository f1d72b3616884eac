package server

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"indoorpath/internal/core"
	"indoorpath/internal/model"
	"indoorpath/internal/obs"
	"indoorpath/internal/service"
	"indoorpath/internal/temporal"
)

// This file writes route and batch response bodies straight from the
// pool's results. Each body is appended into a pooled buffer in the
// field order of RouteResponse and BatchResponse, with encoding/json's
// rules: HTML-safe string escaping (U+2028, U+2029 and invalid UTF-8
// included), its 'f'/'e' float switch, omitempty, "doors":null for a
// door-less path and the Encoder's trailing newline. The bytes equal
// json.NewEncoder's on the wire types; encode_test.go holds the
// encoder to that on every kind of answer and under fuzzing.

// bodyEncoder appends one response body. bad records a value
// encoding/json refuses (a NaN or infinite number); writeJSON answers
// such a body with the status line alone, and so does send.
type bodyEncoder struct {
	b   []byte
	bad bool
}

// maxPooledBody bounds the buffers kept for reuse, so one huge batch
// does not pin its body's memory.
const maxPooledBody = 256 << 10

var bodyEncoders = sync.Pool{New: func() any { return &bodyEncoder{b: make([]byte, 0, 4096)} }}

func newBodyEncoder() *bodyEncoder {
	e := bodyEncoders.Get().(*bodyEncoder)
	e.b, e.bad = e.b[:0], false
	return e
}

// send answers 200 with the body plus encoding/json's trailing newline
// and recycles the encoder.
func (e *bodyEncoder) send(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if !e.bad {
		e.b = append(e.b, '\n')
		_, _ = w.Write(e.b)
	}
	if cap(e.b) <= maxPooledBody {
		bodyEncoders.Put(e)
	}
}

// route appends one RouteResponse object. stats says whether the
// outcome carries search statistics (pool answers do, waiting answers
// do not); trace, the opt-in inline trace, is the one part still
// marshalled by encoding/json.
func (e *bodyEncoder) route(mv *model.Venue, res *service.Result, stats bool, trace *obs.TraceDoc) {
	found := res.Err == nil
	failed := !found && !errors.Is(res.Err, core.ErrNoRoute)
	if found {
		e.raw(`{"found":true,"path":`)
		e.path(mv, res.Path)
	} else {
		e.raw(`{"found":false`)
	}
	if stats && !failed {
		e.raw(`,"stats":`)
		e.stats(&res.Stats)
	}
	if res.CacheHit {
		e.raw(`,"cache_hit":true`)
	}
	if res.Hit != "" {
		e.raw(`,"hit":`)
		e.str(string(res.Hit))
	}
	if res.Shared {
		e.raw(`,"shared":true`)
	}
	if res.SharedRun {
		e.raw(`,"shared_run":true`)
	}
	if res.Coalesced {
		e.raw(`,"coalesced":true`)
	}
	if x := res.Explain.String(); x != "" {
		e.raw(`,"explain":`)
		e.str(x)
	}
	if failed {
		doc := errorDocOf(res.Err)
		e.raw(`,"error":{"code":`)
		e.str(doc.Code)
		e.raw(`,"message":`)
		e.str(doc.Message)
		e.b = append(e.b, '}')
	}
	if trace != nil {
		doc, err := json.Marshal(trace)
		if err != nil {
			e.bad = true
		}
		e.raw(`,"trace":`)
		e.b = append(e.b, doc...)
	}
	e.b = append(e.b, '}')
}

// path appends a found path's PathDoc, resolving door and partition
// names against the venue.
func (e *bodyEncoder) path(mv *model.Venue, p *core.Path) {
	e.raw(`{"format":"(ps`)
	for _, d := range p.Doors {
		e.raw(", ")
		e.b = appendEscaped(e.b, mv.Door(d).Name)
	}
	e.raw(`, pt)","length_m":`)
	e.num(p.Length)
	e.raw(`,"hops":`)
	e.int(len(p.Doors))
	e.raw(`,"depart_sec":`)
	e.num(float64(p.DepartedAt))
	e.raw(`,"depart":`)
	e.clock(p.DepartedAt)
	e.raw(`,"arrive_sec":`)
	e.num(float64(p.ArrivalAtTgt))
	e.raw(`,"arrive":`)
	e.clock(p.ArrivalAtTgt)
	if p.TotalWait != 0 {
		e.raw(`,"wait_sec":`)
		e.num(float64(p.TotalWait))
	}
	// Both lists are built by appending to nil slices, so an empty one
	// is null on the wire.
	e.raw(`,"doors":`)
	if len(p.Doors) == 0 {
		e.raw("null")
	} else {
		for i, d := range p.Doors {
			e.listSep(i)
			e.raw(`{"door":`)
			e.str(mv.Door(d).Name)
			e.raw(`,"arrive_sec":`)
			e.num(float64(p.Arrivals[i]))
			e.raw(`,"arrive":`)
			e.clock(p.Arrivals[i])
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	e.raw(`,"partitions":`)
	if len(p.Partitions) == 0 {
		e.raw("null")
	} else {
		for i, part := range p.Partitions {
			e.listSep(i)
			e.str(mv.Partition(part).Name)
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, '}')
}

// stats appends a core.SearchStats object.
func (e *bodyEncoder) stats(s *core.SearchStats) {
	e.raw(`{"method":`)
	e.str(s.Method)
	e.raw(`,"pops":`)
	e.int(s.Pops)
	e.raw(`,"settled":`)
	e.int(s.Settled)
	e.raw(`,"relaxations":`)
	e.int(s.Relaxations)
	e.raw(`,"doors_touched":`)
	e.int(s.DoorsTouched)
	e.raw(`,"partitions_visited":`)
	e.int(s.PartitionsVisited)
	e.raw(`,"heap_max":`)
	e.int(s.HeapMax)
	c := &s.Checker
	e.raw(`,"checker":{"checks":`)
	e.int(c.Checks)
	e.raw(`,"passed":`)
	e.int(c.Passed)
	e.raw(`,"ati_probes":`)
	e.int(c.ATIProbes)
	e.raw(`,"snapshot_probes":`)
	e.int(c.SnapshotProbes)
	e.raw(`,"slot_switches":`)
	e.int(c.SlotSwitches)
	e.raw(`,"snapshot_builds":`)
	e.int(c.SnapshotBuilds)
	e.raw(`,"snapshot_bytes":`)
	e.int(c.SnapshotBytes)
	e.raw(`,"pruned_lists":`)
	e.int(c.PrunedLists)
	e.raw(`},"bytes_estimate":`)
	e.int(s.BytesEstimate)
	e.raw(`,"found":`)
	e.b = strconv.AppendBool(e.b, s.Found)
	e.raw(`,"path_hops":`)
	e.int(s.PathHops)
	e.raw(`,"path_length":`)
	e.num(s.PathLength)
	e.b = append(e.b, '}')
}

// batch appends a BatchResponse: one RouteResponse per result, then
// the cache summary.
func (e *bodyEncoder) batch(mv *model.Venue, results []service.Result, sum *service.BatchSummary) {
	e.raw(`{"results":[`)
	for i := range results {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.route(mv, &results[i], true, nil)
	}
	e.raw(`],"cache":{"queries":`)
	e.int(sum.Queries)
	e.raw(`,"exact_hits":`)
	e.int(sum.ExactHits)
	e.raw(`,"window_hits":`)
	e.int(sum.WindowHits)
	if sum.SkeletonHits != 0 {
		e.raw(`,"skeleton_hits":`)
		e.int(sum.SkeletonHits)
	}
	e.raw(`,"searches":`)
	e.int(sum.Searches)
	if sum.SharedRuns != 0 {
		e.raw(`,"shared_runs":`)
		e.int(sum.SharedRuns)
	}
	if sum.SharedAnswers != 0 {
		e.raw(`,"shared_answers":`)
		e.int(sum.SharedAnswers)
	}
	e.raw(`}}`)
}

// listSep opens a JSON array before its first element and separates
// the later ones.
func (e *bodyEncoder) listSep(i int) {
	if i == 0 {
		e.b = append(e.b, '[')
	} else {
		e.b = append(e.b, ',')
	}
}

func (e *bodyEncoder) raw(s string) { e.b = append(e.b, s...) }

func (e *bodyEncoder) int(n int) { e.b = strconv.AppendInt(e.b, int64(n), 10) }

// str appends s as a JSON string.
func (e *bodyEncoder) str(s string) {
	e.b = append(appendEscaped(append(e.b, '"'), s), '"')
}

// clock appends a time of day as its quoted "H:MM[:SS]" rendering,
// which never needs escaping.
func (e *bodyEncoder) clock(t temporal.TimeOfDay) {
	e.b = append(t.AppendClock(append(e.b, '"')), '"')
}

// num appends a float64 as encoding/json does: ES6 number formatting,
// 'e' below 1e-6 and from 1e21 in magnitude, exponents unpadded.
func (e *bodyEncoder) num(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.bad = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		n := len(e.b)
		if e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

const hexDigits = "0123456789abcdef"

// appendEscaped appends the body of s as a JSON string with
// encoding/json's HTML-safe escaping: quotes, backslashes and control
// bytes, '<', '>' and '&', U+2028 and U+2029 are escaped, and every
// invalid UTF-8 byte becomes \ufffd.
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	return append(dst, s[start:]...)
}
