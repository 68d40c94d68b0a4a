package colbin

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/tracegen"
	"repro/internal/workload"
)

func testJobs(t testing.TB, n, distinct int) []workload.Features {
	t.Helper()
	p := tracegen.Default()
	p.NumJobs = n
	p.DistinctJobs = distinct
	p.ArrivalRate = 3600 // nonzero arrival stamps so every field round-trips
	tr, err := tracegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Jobs
}

func encodeAll(t testing.TB, jobs []workload.Features, blockRecords int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriterBlockRecords(&buf, blockRecords)
	for _, f := range jobs {
		if err := w.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodeAll(t testing.TB, data []byte) []workload.Features {
	t.Helper()
	r := NewReader(bytes.NewReader(data))
	var out []workload.Features
	for {
		f, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
}

func TestRoundTrip(t *testing.T) {
	jobs := testJobs(t, 1000, 37)
	for _, blockRecords := range []int{1, 7, 256, 4096} {
		data := encodeAll(t, jobs, blockRecords)
		got := decodeAll(t, data)
		if len(got) != len(jobs) {
			t.Fatalf("blockRecords=%d: decoded %d records, want %d", blockRecords, len(got), len(jobs))
		}
		for i := range jobs {
			if !reflect.DeepEqual(got[i], jobs[i]) {
				t.Fatalf("blockRecords=%d: record %d differs:\n got %+v\nwant %+v", blockRecords, i, got[i], jobs[i])
			}
		}
	}
}

// TestRoundTripMatchesNDJSONOracle: the two codecs must accept the same
// records with bit-identical field values, so a converted trace evaluates
// byte-identically.
func TestRoundTripMatchesNDJSONOracle(t *testing.T) {
	jobs := testJobs(t, 500, 23)
	var nd bytes.Buffer
	enc := tracegen.NewEncoder(&nd)
	for _, f := range jobs {
		if err := enc.Encode(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	viaNDJSON, err := tracegen.ReadNDJSON(bytes.NewReader(nd.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	viaColbin := decodeAll(t, encodeAll(t, jobs, 64))
	if len(viaColbin) != len(viaNDJSON.Jobs) {
		t.Fatalf("colbin decoded %d records, ndjson %d", len(viaColbin), len(viaNDJSON.Jobs))
	}
	for i := range viaColbin {
		if !reflect.DeepEqual(viaColbin[i], viaNDJSON.Jobs[i]) {
			t.Fatalf("record %d: colbin %+v != ndjson %+v", i, viaColbin[i], viaNDJSON.Jobs[i])
		}
	}
}

func TestNextBlockShapes(t *testing.T) {
	jobs := testJobs(t, 1000, 11)
	r := NewReader(bytes.NewReader(encodeAll(t, jobs, 256)))
	var c workload.Columns
	total := 0
	blocks := 0
	for {
		err := r.NextBlock(&c)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := c.CheckShape(); err != nil {
			t.Fatal(err)
		}
		if c.Len() == 0 || c.Len() > 256 {
			t.Fatalf("block %d has %d records", blocks, c.Len())
		}
		for i := 0; i < c.Len(); i++ {
			if !reflect.DeepEqual(c.Row(i), jobs[total+i]) {
				t.Fatalf("block %d record %d differs", blocks, i)
			}
		}
		total += c.Len()
		blocks++
	}
	if total != len(jobs) {
		t.Fatalf("blocks delivered %d records, want %d", total, len(jobs))
	}
	if blocks != 4 {
		t.Fatalf("1000 records at 256/block should be 4 blocks, got %d", blocks)
	}
}

func TestEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream Next = %v, want io.EOF", err)
	}
	// Even an empty file carries a (zero-block) index.
	ix, err := ReadIndex(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Blocks() != 0 || ix.Records() != 0 {
		t.Fatalf("empty stream index: %d blocks, %d records", ix.Blocks(), ix.Records())
	}
}

func TestEmptyStreamOmitIndex(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.OmitIndex()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 6 {
		t.Fatalf("empty index-less stream should be the 6-byte header, got %d bytes", buf.Len())
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream Next = %v, want io.EOF", err)
	}
	if _, err := ReadIndex(bytes.NewReader(buf.Bytes()), 6); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("ReadIndex on index-less stream = %v, want ErrNoIndex", err)
	}
}

func TestWriteColumns(t *testing.T) {
	jobs := testJobs(t, 300, 5)
	var c workload.Columns
	for _, f := range jobs {
		c.Append(f)
	}
	var buf bytes.Buffer
	w := NewWriterBlockRecords(&buf, 128)
	if err := w.WriteColumns(&c); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.N() != 300 {
		t.Fatalf("N = %d, want 300", w.N())
	}
	got := decodeAll(t, buf.Bytes())
	for i := range jobs {
		if !reflect.DeepEqual(got[i], jobs[i]) {
			t.Fatalf("record %d differs", i)
		}
	}
}

// TestTruncated: every prefix of a valid stream must fail with a clean
// error (or io.EOF exactly at a block boundary), never panic or hang.
func TestTruncated(t *testing.T) {
	jobs := testJobs(t, 64, 7)
	data := encodeAll(t, jobs, 16)
	for cut := 0; cut < len(data); cut++ {
		r := NewReader(bytes.NewReader(data[:cut]))
		var sawErr error
		for {
			_, err := r.Next()
			if err != nil {
				sawErr = err
				break
			}
		}
		if sawErr == nil {
			t.Fatalf("cut=%d: no terminal error", cut)
		}
		if errors.Is(sawErr, io.EOF) {
			// Only legitimate at a block boundary: the truncated stream is a
			// valid shorter stream. Verify it still decodes cleanly.
			if cut >= 6 {
				continue
			}
			t.Fatalf("cut=%d: io.EOF before the header completes", cut)
		}
		if !strings.Contains(sawErr.Error(), "colbin") {
			t.Fatalf("cut=%d: error %q does not identify the codec", cut, sawErr)
		}
		// Sticky: the same error repeats.
		if _, err := r.Next(); !errors.Is(err, sawErr) && err.Error() != sawErr.Error() {
			t.Fatalf("cut=%d: error not sticky: %v then %v", cut, sawErr, err)
		}
	}
}

func TestCorruptChecksum(t *testing.T) {
	jobs := testJobs(t, 32, 3)
	data := encodeAll(t, jobs, 32)
	// Flip one payload byte (well past the 6-byte header and frame length).
	data[len(data)/2] ^= 0xff
	r := NewReader(bytes.NewReader(data))
	_, err := r.Next()
	for err == nil {
		_, err = r.Next()
	}
	if errors.Is(err, io.EOF) {
		t.Fatal("corrupted stream decoded cleanly")
	}
	if !strings.Contains(err.Error(), "colbin: block 1") {
		t.Fatalf("error %q does not carry the block number", err)
	}
}

func TestCorruptFrameLength(t *testing.T) {
	jobs := testJobs(t, 8, 2)
	data := encodeAll(t, jobs, 8)
	// Replace the frame length with an absurd uvarint; the reader must
	// reject it instead of allocating what it claims.
	bad := append([]byte{}, data[:6]...)
	bad = binary.AppendUvarint(bad, 1<<40)
	bad = append(bad, data[7:]...)
	r := NewReader(bytes.NewReader(bad))
	_, err := r.Next()
	if err == nil || !strings.Contains(err.Error(), "implausible payload length") {
		t.Fatalf("err = %v, want implausible payload length", err)
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOTPAI....")).Next(); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("bad magic: err = %v", err)
	}
	jobs := testJobs(t, 4, 1)
	data := encodeAll(t, jobs, 4)
	data[5] = 99 // version byte
	if _, err := NewReader(bytes.NewReader(data)).Next(); err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Fatalf("bad version: err = %v", err)
	}
	if _, err := NewReader(strings.NewReader("")).Next(); err == nil || !strings.Contains(err.Error(), "header") {
		t.Fatalf("empty input: err = %v", err)
	}
}

// TestInvalidRecordRejected: the decoder applies the same Features.Validate
// acceptance rule as the NDJSON decoder, so a physically meaningless record
// cannot enter through the binary side door.
func TestInvalidRecordRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	bad := testJobs(t, 1, 1)[0]
	bad.CNodes = 0
	if err := w.Write(bad); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	_, err := NewReader(bytes.NewReader(buf.Bytes())).Next()
	if err == nil || !strings.Contains(err.Error(), "CNodes") {
		t.Fatalf("err = %v, want CNodes validation failure", err)
	}
}

func TestDetect(t *testing.T) {
	jobs := testJobs(t, 2, 1)
	data := encodeAll(t, jobs, 2)
	if !Detect(data) {
		t.Error("Detect rejected a valid stream")
	}
	if Detect([]byte(`{"name":"x"}`)) || Detect(nil) || Detect([]byte("PAIC")) {
		t.Error("Detect accepted non-colbin input")
	}
}

// TestClassEnumContiguous pins the assumption the class-byte range check
// relies on: classes are contiguous 0..PEARL.
func TestClassEnumContiguous(t *testing.T) {
	all := workload.AllClasses()
	for i, c := range all {
		if int(c) != i {
			t.Fatalf("class %v has value %d, want %d", c, int(c), i)
		}
	}
	if all[len(all)-1] != workload.PEARL {
		t.Fatalf("last class is %v, want PEARL", all[len(all)-1])
	}
}

// TestChecksumSplit: the one-pass split checksum agrees with checksum of
// the whole buffer and of every prefix, across chunk and word boundaries.
func TestChecksumSplit(t *testing.T) {
	b := make([]byte, 200)
	for i := range b {
		b[i] = byte(i*131 + 7)
	}
	for n := 0; n <= len(b); n += 13 {
		for k := 0; k <= n; k++ {
			whole, prefix := checksumSplit(b[:n], k)
			if whole != checksum(b[:n]) || prefix != checksum(b[:k]) {
				t.Fatalf("len %d, split %d: (%#x, %#x), want (%#x, %#x)", n, k, whole, prefix, checksum(b[:n]), checksum(b[:k]))
			}
		}
	}
}

// TestNextFrameKey: a frame's key is its payload without the ArrivalSec
// column, checksummed with the frame, so a block resubmitted at other
// times has the key of the original and any other change gives another
// key; a frame whose arrivals decode would reject has no key, and its
// decode still fails as NextBlock's does.
func TestNextFrameKey(t *testing.T) {
	jobs := testJobs(t, 64, 64)
	restamped := append([]workload.Features(nil), jobs...)
	renamed := append([]workload.Features(nil), jobs...)
	late := append([]workload.Features(nil), jobs...)
	for i := range restamped {
		restamped[i].ArrivalSec += 1000
	}
	renamed[5].Name += "-again"
	late[7].ArrivalSec = -1
	data := encodeAll(t, append(append(append(append([]workload.Features(nil), jobs...), restamped...), renamed...), late...), 64)

	r := NewReader(bytes.NewReader(data))
	var keys [][]byte
	for i := 0; ; i++ {
		key, sum, dec, err := r.NextFrame()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		var c workload.Columns
		decErr := dec(&c)
		if i == 3 {
			if key != nil || decErr == nil || !strings.Contains(decErr.Error(), "block 4: record 7:") {
				t.Errorf("frame with a negative arrival: key of %d bytes, decode error %v", len(key), decErr)
			}
		} else {
			if decErr != nil {
				t.Fatal(decErr)
			}
			if key == nil || sum != checksum(key) {
				t.Errorf("frame %d: key of %d bytes with checksum %#x", i, len(key), sum)
			}
			if c.Len() != 64 {
				t.Errorf("frame %d: decoded %d records", i, c.Len())
			}
		}
		keys = append(keys, bytes.Clone(key))
		if err := dec(nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(keys) != 4 || !bytes.Equal(keys[0], keys[1]) || bytes.Equal(keys[0], keys[2]) {
		t.Errorf("restamped block does not share the key, or the renamed one does")
	}
}
