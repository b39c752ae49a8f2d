package trace

import (
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/failures"
)

// This file holds the decode twin of the append-based encoders in
// encode.go: a hand-rolled parser for the canonical NDJSON wire line
// that avoids encoding/json's reflection, scanner, and per-field
// interface machinery on the streaming-ingest hot path (the serve
// ingest plane spends over half its time in json.Unmarshal otherwise).
//
// The contract is strict fallback, not reimplementation: the fast path
// accepts a line only when it can prove json.Unmarshal would decode it
// to the identical jsonRecord — a flat object of known, non-repeated
// keys with escape-free ASCII strings and JSON-grammar numbers. Anything
// else (escapes, non-ASCII, unknown or duplicate keys, exotic numbers,
// null, nested values, trailing garbage, any syntax error) returns
// ok=false and the caller re-parses through encoding/json, so error
// behavior and tolerance for non-canonical input are exactly what they
// were. decode_test.go runs both paths differentially over canonical and
// adversarial input, and FuzzParseNDJSONRecord extends that to
// coverage-guided corpora.

// parseNDJSONRecordFast decodes one canonical NDJSON wire line.
// ok=false means the line deviates from the canonical form and the
// caller must fall back to encoding/json; it never means "invalid
// input" — malformed lines also just fall back, and fail there.
//
// The system, category and software-cause strings are interned against
// failures' closed vocabularies, so canonical values cost no allocation.
// With a nil arena the node and GPU slots are allocated per record;
// with an arena they are appended to it instead, rec.Node and rec.GPUs
// are left empty, and the arena's attach hands them out later.
func parseNDJSONRecordFast(line []byte, a *chunkArena) (rec jsonRecord, ok bool) {
	p := lineParser{b: line}
	p.ws()
	if !p.eat('{') {
		return rec, false
	}
	p.ws()
	var seen uint16
	for closed := p.eat('}'); !closed; {
		p.ws()
		key, ok := p.str()
		if !ok {
			return rec, false
		}
		p.ws()
		if !p.eat(':') {
			return rec, false
		}
		p.ws()
		var bit uint16
		switch string(key) {
		case "id":
			bit = 1 << 0
			rec.ID, ok = p.integer()
		case "system":
			bit = 1 << 1
			var s []byte
			s, ok = p.str()
			rec.System = intern(s)
		case "time":
			bit = 1 << 2
			var tok []byte
			if tok, ok = p.quoted(); ok {
				ok = rec.Time.UnmarshalJSON(tok) == nil
			}
		case "recovery_hours":
			bit = 1 << 3
			var tok []byte
			if tok, ok = p.number(); ok {
				var err error
				rec.RecoveryHours, err = strconv.ParseFloat(string(tok), 64)
				ok = err == nil
			}
		case "category":
			bit = 1 << 4
			var s []byte
			s, ok = p.str()
			rec.Category = intern(s)
		case "node":
			bit = 1 << 5
			var s []byte
			s, ok = p.str()
			if a != nil {
				a.nodes = append(a.nodes, s...)
			} else {
				rec.Node = string(s)
			}
		case "gpus":
			bit = gpusBit
			if a != nil {
				a.gpus, ok = p.intArray(a.gpus)
			} else {
				var slots [8]int
				var v []int
				v, ok = p.intArray(slots[:0])
				rec.GPUs = append(make([]int, 0, len(v)), v...)
			}
		case "software_cause":
			bit = 1 << 7
			var s []byte
			s, ok = p.str()
			rec.SoftwareCause = intern(s)
		default:
			return rec, false
		}
		if !ok || seen&bit != 0 {
			return rec, false
		}
		seen |= bit
		p.ws()
		if closed = p.eat('}'); !closed && !p.eat(',') {
			return rec, false
		}
	}
	p.ws()
	if p.pos != len(p.b) {
		return rec, false
	}
	if a != nil {
		a.ends = append(a.ends, arenaEnd{node: len(a.nodes), gpu: len(a.gpus), hasGPUs: seen&gpusBit != 0})
	}
	return rec, true
}

// gpusBit is the seen-mask bit of the "gpus" key.
const gpusBit = 1 << 6

// vocabulary is every name in failures' closed vocabularies (the system
// names, both category taxonomies, the software causes), sorted for
// binary search. Node names are deliberately absent: a large trace has
// hundreds of thousands of distinct nodes, so interning them would only
// grow a table.
var vocabulary = func() []string {
	var names []string
	for _, sys := range []failures.System{failures.Tsubame2, failures.Tsubame3} {
		names = append(names, sys.String())
		for _, c := range failures.Categories(sys) {
			names = append(names, c.String())
		}
	}
	for _, c := range failures.SoftwareCauses() {
		names = append(names, c.String())
	}
	slices.Sort(names)
	return slices.Compact(names)
}()

// intern returns the vocabulary's copy of s when it has one (the lookup
// does not allocate), else a fresh string.
func intern(s []byte) string {
	if i, ok := slices.BinarySearch(vocabulary, string(s)); ok {
		return vocabulary[i]
	}
	return string(s)
}

// chunkArena holds the variable-length fields of one chunk's records
// while the chunk parses: every node name back to back in nodes, every
// GPU slot in gpus, and where each record's fields end in both. attach
// then hands them out as substrings of one string and subslices of one
// []int, as the .tsbc block decoder does, so a chunk costs two
// allocations for these fields instead of two per record.
type chunkArena struct {
	nodes []byte
	gpus  []int
	ends  []arenaEnd
}

// arenaEnd is one record's end offsets into the arena. hasGPUs tells an
// explicit empty "gpus" array, which decodes to a non-nil empty slice,
// from an absent one.
type arenaEnd struct {
	node, gpu int
	hasGPUs   bool
}

// reset empties the arena for a chunk of size bytes and about n
// records, keeping its capacity and reserving enough for typical
// records (a short node name, a GPU slot or none) to append without
// regrowing. Chunk sizes double from batch to batch, so an arena too
// small for the chunk at hand is sized for chunks up to four times
// larger, but not past maxChunk: it regrows at every other doubling.
func (a *chunkArena) reset(size, n int) {
	room := max(1, min(4, maxChunk/max(size, 1)))
	a.nodes = reserve(a.nodes, size/16, room)
	a.gpus = reserve(a.gpus, n, room)
	a.ends = reserve(a.ends, n, room)
}

// reserve empties s, reallocating it at room times n capacity when it
// cannot hold n elements.
func reserve[T any](s []T, n, room int) []T {
	if cap(s) < n {
		return make([]T, 0, room*n)
	}
	return s[:0]
}

// attach sets the Node and GPUs fields of records, which must be the
// records parsed into the arena since reset, in order.
func (a *chunkArena) attach(records []failures.Failure) {
	nodes := string(a.nodes)
	gpus := append(make([]int, 0, len(a.gpus)), a.gpus...)
	var node, gpu int
	for i, e := range a.ends {
		if e.node > node {
			records[i].Node = nodes[node:e.node]
		}
		if e.hasGPUs {
			records[i].GPUs = gpus[gpu:e.gpu:e.gpu]
		}
		node, gpu = e.node, e.gpu
	}
}

// lineParser is a cursor over one line. Methods advance pos on success;
// on failure the whole line is abandoned, so no method needs to rewind.
type lineParser struct {
	b   []byte
	pos int
}

// ws skips JSON whitespace.
func (p *lineParser) ws() {
	for p.pos < len(p.b) {
		switch p.b[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (p *lineParser) eat(c byte) bool {
	if p.pos < len(p.b) && p.b[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// str parses a JSON string restricted to escape-free printable ASCII —
// the only form whose decoded value equals its raw bytes. Escapes,
// control characters, and non-ASCII (which json would UTF-8-validate)
// all decline.
func (p *lineParser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.pos
	for p.pos < len(p.b) {
		switch c := p.b[p.pos]; {
		case c == '"':
			s := p.b[start:p.pos]
			p.pos++
			return s, true
		case c < 0x20 || c == '\\' || c >= utf8.RuneSelf:
			return nil, false
		default:
			p.pos++
		}
	}
	return nil, false
}

// quoted parses a string with str's restrictions but returns the token
// including both quotes — the exact bytes json hands a
// json.Unmarshaler (time.Time here).
func (p *lineParser) quoted() ([]byte, bool) {
	start := p.pos
	if _, ok := p.str(); !ok {
		return nil, false
	}
	return p.b[start:p.pos], true
}

// integer parses a JSON-grammar integer (no fraction, no exponent, no
// leading zeros) that fits the platform int; anything else declines so
// encoding/json can produce its own error or value. Accumulation is in
// int64 so the overflow guard is portable to 32-bit ints.
func (p *lineParser) integer() (int, bool) {
	neg := p.eat('-')
	start := p.pos
	var v int64
	for p.pos < len(p.b) {
		c := p.b[p.pos]
		if c < '0' || c > '9' {
			break
		}
		if v > (math.MaxInt64-9)/10 {
			return 0, false
		}
		v = v*10 + int64(c-'0')
		p.pos++
	}
	if p.pos == start || (p.pos-start > 1 && p.b[start] == '0') {
		return 0, false
	}
	if neg {
		v = -v
	}
	if int64(int(v)) != v {
		return 0, false
	}
	return int(v), true
}

// number validates a JSON-grammar number token and returns its bytes;
// the caller feeds them to strconv.ParseFloat, the same function
// encoding/json uses, so the decoded value is bit-identical.
func (p *lineParser) number() ([]byte, bool) {
	start := p.pos
	p.eat('-')
	d0 := p.pos
	for p.pos < len(p.b) && p.b[p.pos] >= '0' && p.b[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == d0 || (p.pos-d0 > 1 && p.b[d0] == '0') {
		return nil, false
	}
	if p.eat('.') {
		f0 := p.pos
		for p.pos < len(p.b) && p.b[p.pos] >= '0' && p.b[p.pos] <= '9' {
			p.pos++
		}
		if p.pos == f0 {
			return nil, false
		}
	}
	if p.pos < len(p.b) && (p.b[p.pos] == 'e' || p.b[p.pos] == 'E') {
		p.pos++
		if p.pos < len(p.b) && (p.b[p.pos] == '+' || p.b[p.pos] == '-') {
			p.pos++
		}
		e0 := p.pos
		for p.pos < len(p.b) && p.b[p.pos] >= '0' && p.b[p.pos] <= '9' {
			p.pos++
		}
		if p.pos == e0 {
			return nil, false
		}
	}
	return p.b[start:p.pos], true
}

// intArray parses a flat array of JSON integers and appends them to
// dst. Callers turn an empty array into an empty non-nil slice,
// matching json.Unmarshal into []int.
func (p *lineParser) intArray(dst []int) ([]int, bool) {
	if !p.eat('[') {
		return dst, false
	}
	p.ws()
	if p.eat(']') {
		return dst, true
	}
	for {
		v, ok := p.integer()
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
		p.ws()
		if p.eat(',') {
			p.ws()
			continue
		}
		if p.eat(']') {
			return dst, true
		}
		return dst, false
	}
}
