package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/eventual-agreement/eba/internal/knowledge"
)

// referenceJSON is encoding/json's rendering of v as the daemon's
// writers emit it: json.Encoder, indented by two spaces or compact.
// checkWire calls it from a handler's goroutine, so a failure is
// reported with Errorf.
func referenceJSON(t *testing.T, v any, indent bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		t.Errorf("encoding/json refuses %+v: %v", v, err)
	}
	return buf.Bytes()
}

// referenceDecode is the decoder the handlers served with before the
// wire scanner, and still fall back on: json.Decoder with
// DisallowUnknownFields over the body read through MaxBytesReader.
func referenceDecode(body []byte, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// checkWire holds a /v1/query or /v1/query/batch body to encoding/json's
// rendering of its own decoding: an answer as a Response (indented) or
// a BatchResponse (compact), anything else as the error envelope
// (indented).
func checkWire(t *testing.T, path string, code int, body []byte) {
	t.Helper()
	var v any = new(errorBody)
	indent := true
	if code == http.StatusOK {
		v = new(Response)
		if path == "/v1/query/batch" {
			v, indent = new(BatchResponse), false
		}
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Errorf("%s %d: body %q does not decode: %v", path, code, body, err)
		return
	}
	if want := referenceJSON(t, v, indent); !bytes.Equal(body, want) {
		t.Errorf("%s %d: body\n%s\nis not encoding/json's rendering of its decoding\n%s", path, code, body, want)
	}
}

// wireChecked serves h and checks every POST /v1/query and
// /v1/query/batch body it writes with checkWire.
func wireChecked(t *testing.T, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw := &teeWriter{ResponseWriter: w}
		h.ServeHTTP(tw, r)
		if r.Method == http.MethodPost && (r.URL.Path == "/v1/query" || r.URL.Path == "/v1/query/batch") {
			checkWire(t, r.URL.Path, tw.code, tw.body.Bytes())
		}
	})
}

// teeWriter passes a response through and keeps a copy of it.
type teeWriter struct {
	http.ResponseWriter
	code int
	body bytes.Buffer
}

func (w *teeWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *teeWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.body.Write(b)
	return w.ResponseWriter.Write(b)
}

// wireEdges are request objects at the edge of the scanner's subset,
// each with the status /v1/query gives it alone and the status
// /v1/query/batch gives a batch of it. Every one but the last leaves
// the subset, so the reference decoder reads it.
var wireEdges = []struct {
	name, obj    string
	query, batch int
}{
	{"capitalised key", `{"Formula":"E0"}`, 200, 200},
	{"duplicate key", `{"formula":"(((","formula":"E0"}`, 200, 200},
	{"null", `{"formula":"E0","n":null}`, 200, 200},
	{"exponent", `{"formula":"E0","n":1e2}`, 400, 400},
	{"minus zero", `{"formula":"E0","t":-0}`, 200, 200},
	{"leading zero", `{"formula":"E0","n":01}`, 400, 400},
	{"ten digits", `{"formula":"E0","limit":1000000000}`, 200, 200},
	{"int past int64", `{"formula":"E0","horizon":9223372036854775808}`, 400, 400},
	{"surrogate pair", `{"formula":"E0 \ud83d\ude00"}`, 400, 200},
	{"invalid UTF-8", "{\"formula\":\"E0 \xff\"}", 400, 200},
	{"escapes", `{ "formula" : "C\u0020E0 -\u003e Cbox E0" ,` + "\n\t" + `"mode":"cr\u0061sh" }`, 200, 200},
}

// checkEdge posts one table row's body and asserts the response: the
// status, an error envelope on any other status than 200, and for a
// body the reference decoder refuses, that decoder's exact error text
// after the endpoint's prefix. An answered item must echo the formula
// the reference decodes.
func checkEdge(t *testing.T, ts *httptest.Server, path, name, body string, code int) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != code {
		t.Errorf("%s: status %d (%.200s), want %d", name, resp.StatusCode, data, code)
		return
	}
	var ref BatchRequest
	limit, prefix := int64(maxBatchBody), "bad batch body: "
	if path == "/v1/query" {
		limit, prefix = 1<<20, "bad request body: "
		ref.Queries = make([]Request, 1)
		err = referenceDecode([]byte(body), limit, &ref.Queries[0])
	} else {
		err = referenceDecode([]byte(body), limit, &ref)
	}
	if code != http.StatusOK {
		var eb errorBody
		if json.Unmarshal(data, &eb) != nil || eb.Error == "" {
			t.Errorf("%s: error body %q not a JSON error envelope", name, data)
		} else if err != nil && eb.Error != prefix+err.Error() {
			t.Errorf("%s: error %q, want %q", name, eb.Error, prefix+err.Error())
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: answered, but the reference decoder refuses it: %v", name, err)
	}
	var br BatchResponse
	if path == "/v1/query" {
		br.Results = []BatchItem{{Response: new(Response)}}
		err = json.Unmarshal(data, br.Results[0].Response)
	} else {
		err = json.Unmarshal(data, &br)
	}
	if err != nil || len(br.Results) != len(ref.Queries) {
		t.Fatalf("%s: %d results for %d queries (%v)", name, len(br.Results), len(ref.Queries), err)
	}
	for i, it := range br.Results {
		if it.Response != nil && it.Response.Formula != ref.Queries[i].Formula {
			t.Errorf("%s: item %d answers %q, the reference decodes %q", name, i, it.Response.Formula, ref.Queries[i].Formula)
		}
	}
}

// benchBodies are request bodies as a load generator marshals them:
// every field present, and every '>' written \u003e.
func benchBodies(t testing.TB) [][]byte {
	var out [][]byte
	for _, f := range []string{"C E0 -> Cbox E0", "Cbox E0 -> C E0", "K0 E0", "Cdia E0", "B1 E1", "ev K1 E1"} {
		b, err := json.Marshal(struct {
			Formula string `json:"formula"`
			N       int    `json:"n"`
			T       int    `json:"t"`
			Mode    string `json:"mode"`
			Horizon int    `json:"horizon"`
		}{f, 4, 2, "receiving-omission", 2})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	batch := []byte(`{"queries":[`)
	for i, b := range out {
		if i > 0 {
			batch = append(batch, ',')
		}
		batch = append(batch, b...)
	}
	return append(out, append(batch, "]}"...))
}

// FuzzWireRequest: a body the scanner accepts, the reference decoder
// accepts too, with an equal value; and decodeWire, scanner and
// fallback together, gives the reference's value and error on every
// body.
func FuzzWireRequest(f *testing.F) {
	// Outside the subset a body costs the reference's price, so the
	// load generator's bodies must lie inside it.
	bodies := benchBodies(f)
	for i, b := range bodies {
		var req Request
		var br BatchRequest
		if i < len(bodies)-1 && !scanRequest(&scanner{b: b}, &req) || i == len(bodies)-1 && !scanBatch(&scanner{b: b}, &br) {
			f.Fatalf("%s lies outside the wire subset", b)
		}
		f.Add(b)
	}
	for _, e := range wireEdges {
		f.Add([]byte(e.obj))
		f.Add([]byte(`{"queries":[` + e.obj + `]}`))
	}
	f.Add([]byte(`{"formula":"E0"} trailing`))
	f.Add([]byte(`{"queries":[{"formula":"E0"}]} trailing`))
	f.Add([]byte(`{"queries":[]}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req, refReq Request
		if scanRequest(&scanner{b: data}, &req) {
			if err := referenceDecode(data, 1<<20, &refReq); err != nil || !reflect.DeepEqual(req, refReq) {
				t.Fatalf("scanned %+v; the reference decodes %+v, %v", req, refReq, err)
			}
		}
		var br, refBr BatchRequest
		if scanBatch(&scanner{b: data}, &br) {
			if err := referenceDecode(data, maxBatchBody, &refBr); err != nil || !reflect.DeepEqual(br, refBr) {
				t.Fatalf("scanned %+v; the reference decodes %+v, %v", br, refBr, err)
			}
		}
		post := func() (http.ResponseWriter, *http.Request) {
			return httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(data))
		}
		sameDecode(t, data, 1<<20, scanRequest, post)
		sameDecode(t, data, maxBatchBody, scanBatch, post)
		// Past the limit the reference sees the bytes read and the
		// read's error.
		if len(data) > 1 {
			sameDecode(t, data, int64(len(data)/2), scanRequest, post)
		}
	})
}

// sameDecode holds decodeWire to the reference decoder on one body.
func sameDecode[T any](t *testing.T, data []byte, limit int64, scan func(*scanner, *T) bool, post func() (http.ResponseWriter, *http.Request)) {
	t.Helper()
	w, r := post()
	got, err := decodeWire(w, r, limit, scan)
	var want T
	refErr := referenceDecode(data, limit, &want)
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("limit %d: error %v, the reference's %v", limit, err, refErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("limit %d: decoded %+v, the reference %+v", limit, got, want)
	}
}

// FuzzWireResponse: the encoder writes encoding/json's bytes for any
// Response, BatchItem and BatchResponse, compact and indented. s and
// p fill every string field, n and every int, x and us/1000 (a
// stopwatch reading) the floats; the bits of flags choose the optional
// parts.
func FuzzWireResponse(f *testing.F) {
	f.Add("C E0 -> Cbox E0", "crash", 3, 1.5, int64(1234), uint16(0xffff))
	f.Add(`<a href="x">&amp;</a>`, "\u2028\u2029", -7, 1e-7, int64(0), uint16(0x3c))
	f.Add("\x00\x01\b\f\n\r\t\x1f\x7f\"\\/", "\xff\xfe\xc3 \xed\xa0\x80", 1<<40, 1e21, int64(-1), uint16(0x1ff))
	f.Add("\u00e9 \u2603 \U0001F600", "", math.MinInt64, 5e-324, int64(999999999999), uint16(0x0a))
	f.Add("", "omission", math.MaxInt64, -0.0, int64(1000), uint16(0x41))
	f.Add("K0 E0", "memory", 0, math.MaxFloat64, int64(1e15), uint16(0x80))
	f.Add("B1 E1", "disk", 1, 0.1+0.2, int64(123456), uint16(0x25))
	f.Fuzz(func(t *testing.T, s, p string, n int, x float64, us int64, flags uint16) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Skip("encoding/json refuses a non-finite float")
		}
		ms := float64(us) / 1e3
		bit := func(i uint) bool { return flags>>i&1 != 0 }
		pick := func(i uint, v int) int {
			if bit(i) {
				return v
			}
			return 0
		}
		r := Response{
			Formula: s, Valid: bit(0), TruePoints: n, TotalPoints: n / 3,
			System: SystemSummary{
				Mode: p, N: n, T: -n, Horizon: n >> 8, Limit: pick(1, n),
				Runs: n ^ 5, Points: n + 1, Origin: s + p,
			},
			ResultOrigin: p, ElapsedMS: x,
		}
		if bit(2) {
			r.Counterexample = &Counterexample{Run: n, Time: 2, Config: p, Pattern: s, Point: -n}
		}
		if bit(3) {
			r.Provenance = &Provenance{
				Key: p, Stages: StageTimings{QueueMS: ms, LoadMS: x, EvalMS: -ms, ScanMS: x * 1e-9},
				SystemOrigin: s, ResultOrigin: p, Parallelism: n,
			}
			if bit(4) {
				r.Provenance.TraceID = s
			}
			if bit(5) {
				r.Provenance.Eval = &knowledge.EvalStats{
					CDiamondIterations: pick(6, n), CBoxIterativeIterations: pick(7, 1),
					CIterations: pick(8, n), Shards: pick(9, 2),
				}
			}
		}
		br := BatchResponse{
			Results:   []BatchItem{{Response: &r}, {Error: s, Status: pick(10, n)}, {Error: p}, {}},
			ElapsedMS: ms,
		}
		switch {
		case bit(11):
			br.Results = nil
		case bit(12):
			br.Results = []BatchItem{}
		}
		for _, indent := range []bool{false, true} {
			if got, want := appendResponse(nil, &r, indent), referenceJSON(t, &r, indent); !bytes.Equal(got, want) {
				t.Errorf("indent %v: response\n%s\nencoding/json writes\n%s", indent, got, want)
			}
			if got, want := appendBatch(nil, &br, indent), referenceJSON(t, &br, indent); !bytes.Equal(got, want) {
				t.Errorf("indent %v: batch\n%s\nencoding/json writes\n%s", indent, got, want)
			}
		}
	})
}

// TestWireWritesEveryField: with every exported field of a
// BatchResponse set, down through its items' Response, Counterexample,
// Provenance and EvalStats, the encoder writes encoding/json's bytes.
// So a field added to any of these types, omitempty or not, fails here
// until wire.go writes it.
func TestWireWritesEveryField(t *testing.T) {
	var br BatchResponse
	n := 0
	fillNonZero(t, reflect.ValueOf(&br).Elem(), &n)
	for _, indent := range []bool{false, true} {
		r := br.Results[0].Response
		if got, want := appendResponse(nil, r, indent), referenceJSON(t, r, indent); !bytes.Equal(got, want) {
			t.Errorf("indent %v: response\n%s\nencoding/json writes\n%s", indent, got, want)
		}
		if got, want := appendBatch(nil, &br, indent), referenceJSON(t, &br, indent); !bytes.Equal(got, want) {
			t.Errorf("indent %v: batch\n%s\nencoding/json writes\n%s", indent, got, want)
		}
	}
}

// fillNonZero sets every exported field reachable from v, through
// structs, pointers and slices, to a value of its own that is not the
// zero value. A kind it does not know fails the test, as the wire
// encoder would not know it either.
func fillNonZero(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("<s%d>", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int:
		v.SetInt(int64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.125)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(t, v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillNonZero(t, v.Index(i), n)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillNonZero(t, v.Field(i), n)
			}
		}
	default:
		t.Fatalf("fillNonZero: no value for a %s", v.Type())
	}
}
