package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The query wire. /v1/query and /v1/query/batch are the daemon's hot
// path, and reflection cost more there than executing a batch's items,
// so their bodies are written and read by hand:
//
//   - the encoder appends a Response, BatchItem or BatchResponse as
//     encoding/json's Encoder writes it, byte for byte: HTML-escaped
//     strings, omitempty fields, shortest floats, the two-space indent
//     of /v1/query and the trailing newline;
//   - the scanner reads a Request or BatchRequest only when the body
//     lies in a strict subset of JSON (exact field names, each once;
//     strings with valid UTF-8 and no surrogate escapes; integers of at
//     most nine digits). Any other body, and every error, goes to the
//     reference: json.Decoder with DisallowUnknownFields, whose status
//     codes and error texts the daemon has always served.
//
// FuzzWireResponse and FuzzWireRequest hold both to encoding/json.
// Error bodies and the other endpoints stay on writeJSON.

// wireBufs recycles request and response buffers: a batch's reply runs
// to hundreds of KB.
var wireBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeWire writes one 200 body that fill appends to a pooled buffer.
func writeWire(w http.ResponseWriter, fill func([]byte) []byte) {
	bp := wireBufs.Get().(*[]byte)
	b := fill((*bp)[:0])
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b) //nolint:errcheck // the connection is gone; nothing to do
	*bp = b
	wireBufs.Put(bp)
}

// decodeWire reads a request body of at most limit bytes into a T: by
// scan when the body lies in the wire subset, else by the reference
// decoder. When the read fails the reference gets the bytes read so
// far and then the same error, as it did when it read the body itself.
func decodeWire[T any](w http.ResponseWriter, r *http.Request, limit int64, scan func(*scanner, *T) bool) (T, error) {
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	buf := bytes.NewBuffer((*bp)[:0])
	if n := r.ContentLength; n > 0 && n <= limit {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, rerr := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	data := buf.Bytes()
	*bp = data
	var v T
	if rerr == nil && scan(&scanner{b: data}, &v) {
		return v, nil
	}
	var src io.Reader = bytes.NewReader(data)
	if rerr != nil {
		src = io.MultiReader(src, errReader{rerr})
	}
	v = *new(T)
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	err := dec.Decode(&v)
	return v, err
}

// errReader replays a body's read error to the reference decoder.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// appendResponse appends r as json.Encoder writes it, indented by two
// spaces or compact, with the trailing newline.
func appendResponse(b []byte, r *Response, indent bool) []byte {
	e := wireEnc{b: b, indent: indent}
	e.response(r)
	return append(e.b, '\n')
}

// appendBatch appends br as json.Encoder writes it, indented by two
// spaces or compact, with the trailing newline.
func appendBatch(b []byte, br *BatchResponse, indent bool) []byte {
	e := wireEnc{b: b, indent: indent}
	e.open('{')
	e.key("results")
	if br.Results == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.open('[')
		for i := range br.Results {
			e.elem()
			e.item(&br.Results[i])
		}
		e.close(']')
	}
	e.float("elapsed_ms", br.ElapsedMS)
	e.close('}')
	return append(e.b, '\n')
}

// wireEnc appends JSON values. empty says that the innermost open
// object or array has no member yet; since the encoder follows the
// types' nesting, one flag serves every level.
type wireEnc struct {
	b      []byte
	indent bool
	depth  int
	empty  bool
}

func (e *wireEnc) open(c byte) {
	e.b = append(e.b, c)
	e.depth++
	e.empty = true
}

func (e *wireEnc) close(c byte) {
	e.depth--
	if !e.empty {
		e.newline()
	}
	e.b = append(e.b, c)
	e.empty = false
}

// elem starts a member or element of the innermost open value.
func (e *wireEnc) elem() {
	if !e.empty {
		e.b = append(e.b, ',')
	}
	e.empty = false
	e.newline()
}

func (e *wireEnc) newline() {
	if e.indent {
		e.b = append(e.b, '\n')
		for i := 0; i < e.depth; i++ {
			e.b = append(e.b, ' ', ' ')
		}
	}
}

// key starts a member named k, which needs no escaping. The methods
// below write a whole member: key k and its value.
func (e *wireEnc) key(k string) {
	e.elem()
	e.b = append(e.b, '"')
	e.b = append(e.b, k...)
	e.b = append(e.b, '"', ':')
	if e.indent {
		e.b = append(e.b, ' ')
	}
}

func (e *wireEnc) object(k string) {
	e.key(k)
	e.open('{')
}

func (e *wireEnc) int(k string, v int) {
	e.key(k)
	e.b = strconv.AppendInt(e.b, int64(v), 10)
}

func (e *wireEnc) bool(k string, v bool) {
	e.key(k)
	e.b = strconv.AppendBool(e.b, v)
}

func (e *wireEnc) str(k, v string) {
	e.key(k)
	e.b = appendWireString(e.b, v)
}

func (e *wireEnc) float(k string, v float64) {
	e.key(k)
	e.b = appendWireFloat(e.b, v)
}

func (e *wireEnc) item(it *BatchItem) {
	e.open('{')
	if it.Response != nil {
		e.key("response")
		e.response(it.Response)
	}
	if it.Error != "" {
		e.str("error", it.Error)
	}
	if it.Status != 0 {
		e.int("status", it.Status)
	}
	e.close('}')
}

func (e *wireEnc) response(r *Response) {
	e.open('{')
	e.str("formula", r.Formula)
	e.bool("valid", r.Valid)
	e.int("true_points", r.TruePoints)
	e.int("total_points", r.TotalPoints)
	if c := r.Counterexample; c != nil {
		e.object("counterexample")
		e.int("run", c.Run)
		e.int("time", c.Time)
		e.str("config", c.Config)
		e.str("pattern", c.Pattern)
		e.int("point", c.Point)
		e.close('}')
	}
	s := &r.System
	e.object("system")
	e.str("mode", s.Mode)
	e.int("n", s.N)
	e.int("t", s.T)
	e.int("horizon", s.Horizon)
	if s.Limit != 0 {
		e.int("limit", s.Limit)
	}
	e.int("runs", s.Runs)
	e.int("points", s.Points)
	e.str("origin", s.Origin)
	e.close('}')
	e.str("result_origin", r.ResultOrigin)
	e.float("elapsed_ms", r.ElapsedMS)
	if p := r.Provenance; p != nil {
		e.object("provenance")
		if p.TraceID != "" {
			e.str("trace_id", p.TraceID)
		}
		e.str("key", p.Key)
		e.object("stages")
		e.float("queue_ms", p.Stages.QueueMS)
		e.float("load_ms", p.Stages.LoadMS)
		e.float("eval_ms", p.Stages.EvalMS)
		e.float("scan_ms", p.Stages.ScanMS)
		e.close('}')
		e.str("system_origin", p.SystemOrigin)
		e.str("result_origin", p.ResultOrigin)
		e.int("parallelism", p.Parallelism)
		if st := p.Eval; st != nil {
			e.object("eval")
			for _, f := range [...]struct {
				k string
				v int
			}{
				{"cdiamond_iterations", st.CDiamondIterations},
				{"cbox_iterative_iterations", st.CBoxIterativeIterations},
				{"c_iterations", st.CIterations},
				{"shards", st.Shards},
			} {
				if f.v != 0 {
					e.int(f.k, f.v)
				}
			}
			e.close('}')
		}
		e.close('}')
	}
	e.close('}')
}

// wireSafe marks the ASCII bytes a string carries unescaped:
// encoding/json's HTML-safe set, which leaves out the control bytes,
// '"', '\\', '<', '>' and '&'.
var wireSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := byte(' '); c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendWireString appends s quoted as encoding/json quotes it with
// HTML escaping on: \u003c, \u003e and \u0026 for '<', '>' and '&',
// short escapes for the usual control bytes, \u00XX for the others,
// \ufffd for each byte of invalid UTF-8, and U+2028 and U+2029 as
// \u2028 and \u2029.
func appendWireString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if wireSafe[c] || (mutant == "wire_html" && (c == '<' || c == '>' || c == '&')) {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendWireFloat appends f as encoding/json writes a float64: the
// shortest decimal that reads back as f, in 'e' form below 1e-6 and
// from 1e21. f must be finite, as every float on the wire is: a
// stopwatch reading from msBetween.
func appendWireFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 is written e-7.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// scanner reads a request body in the wire subset. Each method reports
// whether the input lies in the subset; false sends the whole body to
// the reference decoder, so a method may stop anywhere.
type scanner struct {
	b []byte
	i int
}

// scanBatch scans a BatchRequest: {"queries":[...]} and nothing else.
// Bytes after the object are ignored, as the reference ignores them.
func scanBatch(s *scanner, br *BatchRequest) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	if k, ok := s.key(); !ok || string(k) != "queries" || !s.eat('[') {
		return false
	}
	br.Queries = []Request{}
	if !s.eat(']') {
		for {
			br.Queries = append(br.Queries, Request{})
			if !scanRequest(s, &br.Queries[len(br.Queries)-1]) {
				return false
			}
			if s.eat(']') {
				break
			}
			if !s.eat(',') {
				return false
			}
		}
	}
	return s.eat('}')
}

// scanRequest scans a Request object whose keys are its exact field
// names, each at most once.
func scanRequest(s *scanner, req *Request) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	var seen uint8
	for {
		k, ok := s.key()
		if !ok {
			return false
		}
		var bit uint8
		switch string(k) {
		case "formula":
			bit = 1
			req.Formula, ok = s.str()
		case "n":
			bit = 2
			req.N, ok = s.int()
		case "t":
			bit = 4
			req.T, ok = s.int()
		case "mode":
			bit = 8
			req.Mode, ok = s.str()
		case "horizon":
			bit = 16
			req.Horizon, ok = s.int()
		case "limit":
			bit = 32
			req.Limit, ok = s.int()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if s.eat('}') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// ws skips whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// eat consumes c after any whitespace.
func (s *scanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key scans an object key without escapes and the colon after it.
func (s *scanner) key() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	end := bytes.IndexByte(s.b[s.i:], '"')
	if end < 0 {
		return nil, false
	}
	k := s.b[s.i : s.i+end]
	s.i += end + 1
	if bytes.IndexByte(k, '\\') >= 0 {
		return nil, false
	}
	return k, s.eat(':')
}

// str scans a string of valid UTF-8 whose escapes are the short ones
// and \uXXXX outside the surrogates. Up to the first escape the string
// is the input's bytes; from there on it is decoded into out.
func (s *scanner) str() (string, bool) {
	if !s.eat('"') {
		return "", false
	}
	start := s.i
	var out []byte
	for s.i < len(s.b) {
		c, n := s.b[s.i], 1
		switch {
		case c == '"':
			s.i++
			if out == nil {
				return string(s.b[start : s.i-1]), true
			}
			return string(out), true
		case c == '\\':
			if out == nil {
				out = append([]byte{}, s.b[start:s.i]...)
			}
			if s.i+1 >= len(s.b) {
				return "", false
			}
			s.i += 2
			switch e := s.b[s.i-1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, ok := s.hex4()
				if !ok || utf8.RuneLen(r) < 0 {
					return "", false
				}
				out = utf8.AppendRune(out, r)
			default:
				return "", false
			}
			continue
		case c < ' ':
			return "", false
		case c >= utf8.RuneSelf:
			var r rune
			if r, n = utf8.DecodeRune(s.b[s.i:]); r == utf8.RuneError && n == 1 {
				return "", false
			}
		}
		if out != nil {
			out = append(out, s.b[s.i:s.i+n]...)
		}
		s.i += n
	}
	return "", false
}

// hex4 scans the four hex digits of a \u escape.
func (s *scanner) hex4() (rune, bool) {
	if s.i+4 > len(s.b) {
		return 0, false
	}
	var r rune
	for _, c := range s.b[s.i : s.i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	s.i += 4
	return r, true
}

// int scans a non-negative integer of one to nine digits without a
// leading zero, so it fits an int on every platform; the caller's next
// token rejects a fraction or an exponent.
func (s *scanner) int() (int, bool) {
	s.ws()
	start, v := s.i, 0
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		v = v*10 + int(s.b[s.i]-'0')
		s.i++
	}
	n := s.i - start
	return v, n >= 1 && n <= 9 && (n == 1 || s.b[start] != '0')
}
