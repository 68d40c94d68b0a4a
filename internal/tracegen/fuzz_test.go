package tracegen

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

// referenceDecode replays an NDJSON stream through a pure encoding/json
// decoder with the Decoder's exact line discipline — the oracle the
// hand-rolled fast scanner must be observationally identical to.
func referenceDecode(data []byte) ([]workload.Features, int, error) {
	s := bufio.NewScanner(bytes.NewReader(data))
	s.Buffer(make([]byte, 64*1024), maxRecordBytes)
	var out []workload.Features
	line := 0
	for s.Scan() {
		line++
		b := bytes.TrimSpace(s.Bytes())
		if len(b) == 0 {
			continue
		}
		f, err := decodeRecordSlow(b)
		if err != nil {
			return out, line, fmt.Errorf("tracegen: line %d: %w", line, err)
		}
		out = append(out, f)
	}
	if err := s.Err(); err != nil {
		return out, line + 1, fmt.Errorf("tracegen: line %d: %w", line+1, err)
	}
	return out, 0, io.EOF
}

// drain runs the production Decoder to exhaustion.
func drain(data []byte) ([]workload.Features, error) {
	d := NewDecoder(bytes.NewReader(data))
	var out []workload.Features
	for {
		f, err := d.Next()
		if err != nil {
			return out, err
		}
		out = append(out, f)
	}
}

// lineOf extracts the "line %d" tag from a decoder error.
func lineOf(t interface{ Errorf(string, ...any) }, err error) int {
	var n int
	if _, scanErr := fmt.Sscanf(err.Error(), "tracegen: line %d:", &n); scanErr != nil {
		t.Errorf("error %q carries no line tag", err)
	}
	return n
}

// sameRecord is reflect.DeepEqual with every float field compared by
// math.Float64bits: DeepEqual compares floats with ==, which equates -0
// and +0, so a decoder that lost the sign of a zero would pass it.
func sameRecord(a, b workload.Features) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if !reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			return false
		}
	}
	return true
}

// FuzzDecoderMatchesEncodingJSON asserts the two-tier Decoder (hand-rolled
// scanner + encoding/json fallback) decodes byte-identically to a pure
// encoding/json decoder on valid records and reports the same line numbers
// on malformed ones.
func FuzzDecoderMatchesEncodingJSON(f *testing.F) {
	// Real generated records.
	p := Default()
	p.NumJobs = 8
	tr, err := Generate(p)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	// Arrival-stamped records (the arrival_sec field of the windowing
	// service).
	pa := Default()
	pa.NumJobs = 8
	pa.ArrivalRate = 600
	tra, err := Generate(pa)
	if err != nil {
		f.Fatal(err)
	}
	var bufa bytes.Buffer
	if err := tra.WriteNDJSON(&bufa); err != nil {
		f.Fatal(err)
	}
	f.Add(bufa.Bytes())

	// Hand-picked boundary cases: field order, whitespace, duplicate keys,
	// unknown keys, escapes, unicode, case-insensitive matching, exotic
	// numbers, null, missing class, malformed syntax.
	for _, seed := range []string{
		`{"name":"a","class":"1w1g","c_nodes":1,"batch_size":2,"flops":1e9}`,
		`{"class":"PS/Worker","c_nodes":16,"batch_size":512,"flops":4e11,"mem_access_bytes":1.2e10,"name":"reco"}`,
		"  { \"name\" : \"x\" ,\t\"class\" : \"1wng\", \"c_nodes\": 4, \"batch_size\": 64, \"flops\": 0.5 }  ",
		`{"name":"dup","name":"wins","class":"1w1g","c_nodes":1,"batch_size":2,"flops":3}`,
		`{"name":"u","class":"1w1g","c_nodes":1,"batch_size":2,"flops":3,"extra_key":{"nested":[1,2]}}`,
		`{"Name":"case","CLASS":"1w1g","c_nodes":1,"batch_size":2,"flops":3}`,
		`{"name":"escA","class":"1w1g","c_nodes":1,"batch_size":2,"flops":3}`,
		`{"name":"tab\there","class":"1w1g","c_nodes":1,"batch_size":2,"flops":3}`,
		`{"name":"non-ascii-é","class":"1w1g","c_nodes":1,"batch_size":2,"flops":3}`,
		`{"name":"n","class":"1w1g","c_nodes":1,"batch_size":2,"flops":1.7976931348623157e308}`,
		`{"name":"n","class":"1w1g","c_nodes":1,"batch_size":2,"flops":1e999}`,
		`{"name":"n","class":"1w1g","c_nodes":1,"batch_size":2,"flops":0.1234567890123456789}`,
		`{"name":"n","class":"1w1g","c_nodes":1,"batch_size":2,"flops":-0}`,
		`{"name":"n","class":"1w1g","c_nodes":1,"batch_size":2,"flops":07}`,
		`{"name":"n","class":"1w1g","c_nodes":1.0,"batch_size":2,"flops":3}`,
		`{"name":"n","class":"1w1g","c_nodes":1e2,"batch_size":2,"flops":3}`,
		`{"name":"n","class":"1w1g","c_nodes":null,"batch_size":2,"flops":3}`,
		`{"name":null,"class":"1w1g","c_nodes":1,"batch_size":2,"flops":3}`,
		`{"name":"n","class":null,"c_nodes":1,"batch_size":2,"flops":3}`,
		`{"name":"n","c_nodes":1,"batch_size":2,"flops":3}`,
		`{"name":"n","class":"bogus","c_nodes":1,"batch_size":2,"flops":3}`,
		`{"name":"n","class":"1w1g","c_nodes":-1,"batch_size":2,"flops":3}`,
		`{"name":"n","class":"1w1g","c_nodes":2,"batch_size":2,"flops":3}`,
		`{"name":"n","class":"1w1g","c_nodes":1,"batch_size":2,"flops":true}`,
		`{"name":"n","class":"1w1g","c_nodes":1,"batch_size":2,"flops":3}trailing`,
		`{"name":"n","class":"1w1g","c_nodes":1,"batch_size":2,"flops":3,}`,
		`not json at all`,
		`[{"name":"n"}]`,
		`{}`,
		"\n\n" + `{"name":"n","class":"1w1g","c_nodes":1,"batch_size":2,"flops":3}` + "\n\n",
		`{"name":"ok","class":"1w1g","c_nodes":1,"batch_size":2,"flops":3}` + "\n" + `{"broken`,
		`{"name":"arr","class":"1w1g","c_nodes":1,"batch_size":2,"flops":3,"arrival_sec":12.5}`,
		`{"name":"arr","class":"1w1g","c_nodes":1,"batch_size":2,"flops":3,"arrival_sec":-1}`,
		`{"name":"arr","class":"1w1g","c_nodes":1,"batch_size":2,"flops":3,"arrival_sec":null}`,
		`{"name":"arr","class":"1w1g","c_nodes":1,"batch_size":2,"flops":3,"arrival_sec":8.64e4}`,
	} {
		f.Add([]byte(seed))
	}

	// Float literals at the edges of each conversion step: 17-, 18- and
	// 19-digit mantissas and 20+ digits (past what the scanner keeps),
	// halfway cases, a subnormal, signed zeros, and exponents just inside
	// and outside the Eisel–Lemire power-of-ten table.
	for _, num := range []string{
		"454219283049.40295", "123456789012345678", "1234567890123456789",
		"12345678901234567890", "0.12345678901234567890123",
		"9007199254740993", "2.2250738585072011e-308", "1e23",
		"0.30000000000000004", "4.9e-324", "-0.0", "-0e5",
		"1e-348", "1e347", "1e-349",
	} {
		f.Add([]byte(`{"name":"f","class":"1w1g","c_nodes":1,"batch_size":2,"flops":3,"mem_access_bytes":` + num + `}`))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // keep iterations fast; long lines add nothing new
		}
		// Skip inputs with a line the Scanner would reject for length:
		// both paths handle it identically and it only slows the fuzzer.
		got, gotErr := drain(data)
		want, wantLine, wantErr := referenceDecode(data)

		if errors.Is(gotErr, io.EOF) != errors.Is(wantErr, io.EOF) {
			t.Fatalf("termination mismatch: decoder %v, reference %v\ninput: %q", gotErr, wantErr, data)
		}
		if len(got) != len(want) {
			t.Fatalf("decoded %d records, reference %d\ninput: %q", len(got), len(want), data)
		}
		for i := range want {
			if !sameRecord(got[i], want[i]) {
				t.Fatalf("record %d differs:\n fast: %+v\n ref:  %+v\ninput: %q", i, got[i], want[i], data)
			}
		}
		if !errors.Is(wantErr, io.EOF) {
			gotLine := lineOf(t, gotErr)
			if gotLine != wantLine {
				t.Fatalf("error line %d, reference line %d\n fast: %v\n ref:  %v\ninput: %q",
					gotLine, wantLine, gotErr, wantErr, data)
			}
			// Error text must match too: the fast path either defers to
			// encoding/json or reproduces the validation error verbatim.
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("error text diverges:\n fast: %v\n ref:  %v\ninput: %q", gotErr, wantErr, data)
			}
		}
	})
}

// TestFastScannerHitsGeneratedRecords pins the optimization itself: every
// record the Encoder writes must decode through the fast path, not the
// encoding/json fallback.
func TestFastScannerHitsGeneratedRecords(t *testing.T) {
	p := Default()
	p.NumJobs = 500
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var f workload.Features
		ok, err := fastDecodeRecord([]byte(line), &f)
		if !ok || err != nil {
			t.Fatalf("record %d left the fast subset (ok=%v err=%v): %s", i, ok, err, line)
		}
		if !sameRecord(f, tr.Jobs[i]) {
			t.Fatalf("record %d round-trip drift:\n got  %+v\n want %+v", i, f, tr.Jobs[i])
		}
	}
}
