package coord

import (
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/analyze"
)

// fuzzSeedFrames builds a corpus of well-formed protocol traffic: hello,
// a range assignment, a result carrying a real checksummed snapshot, a failure
// report, done, and truncations of each.
func fuzzSeedFrames(f *testing.F) [][]byte {
	f.Helper()
	b := testBackend(f)
	jobs := testJobs(f, 48)
	acc, n := shardAcc(f, b, jobs, 2, 0)
	snap := snapshotBytes(f, acc, analyze.ShardMeta("fuzz run", 0))

	var frames [][]byte
	add := func(typ byte, payload []byte) {
		var buf bytes.Buffer
		if err := writeFrame(&buf, typ, payload); err != nil {
			f.Fatal(err)
		}
		frames = append(frames, buf.Bytes())
	}
	add(msgHello, encodeHello(0))
	add(msgRange, encodeRange(RangeAssignment{Cells: 2, Lo: 0, Hi: 2, Attempt: 1, Provenance: "fuzz run", Payload: []byte("spec")}))
	add(msgResult, encodeResult(0, 1, n, snap))
	add(msgFail, encodeFail(0, 1, "boom"))
	add(msgDone, nil)
	return frames
}

// FuzzReadFrameStream extends FuzzReadSnapshot to the framed TCP reader:
// arbitrary bytes fed as a network stream — including one-byte short reads —
// must either parse as protocol messages (and, for results, decode to a
// valid checksummed sink snapshot) or fail with an error. Never a panic,
// never an unbounded allocation.
func FuzzReadFrameStream(f *testing.F) {
	for _, frame := range fuzzSeedFrames(f) {
		f.Add(frame)
		if len(frame) > frameHeaderLen {
			f.Add(frame[:frameHeaderLen])         // header only
			f.Add(frame[:len(frame)-1])           // truncated payload
			f.Add(append([]byte{0xff}, frame...)) // misaligned stream
		}
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Short reads must behave identically to full reads: io.ReadFull
		// hides the transport's chunking.
		for _, src := range []io.Reader{
			bytes.NewReader(data),
			iotest.OneByteReader(bytes.NewReader(data)),
		} {
			for {
				typ, payload, err := readFrame(src)
				if err != nil {
					break
				}
				switch typ {
				case msgHello:
					decodeHello(payload)
				case msgRange:
					if a, err := decodeRange(payload); err == nil {
						if a.Cells < 1 || a.Lo < 0 || a.Lo >= a.Hi || a.Hi > a.Cells {
							t.Fatalf("decodeRange accepted invalid span [%d, %d) of %d", a.Lo, a.Hi, a.Cells)
						}
					}
				case msgResult:
					if _, _, _, snap, err := decodeResult(payload); err == nil {
						// The snapshot inside a result rides the same framed,
						// checksummed format as snapshot files; whatever
						// decodes must re-encode.
						sink, _, err := analyze.ReadSnapshotMeta(bytes.NewReader(snap))
						if err == nil {
							if _, err := sink.MarshalBinary(); err != nil {
								t.Fatalf("decoded sink cannot re-encode: %v", err)
							}
						}
					}
				case msgFail:
					decodeFail(payload)
				}
			}
		}
	})
}

// FuzzWorkerRangeStream feeds arbitrary coordinator bytes to the real
// worker loop, ServeRangeConn, over an in-memory pipe: the input is the
// whole coordinator-to-worker stream, hello included. The worker must never
// panic, must hand its runner only spans with 0 <= Lo < Hi <= Cells, and
// must return once the stream ends.
func FuzzWorkerRangeStream(f *testing.F) {
	frames := fuzzSeedFrames(f)
	hello, rng, result, fail, done := frames[0], frames[1], frames[2], frames[3], frames[4]
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	f.Add(cat(hello, rng, done))
	f.Add(cat(hello, rng, rng, done))
	f.Add(cat(hello, rng[:len(rng)-1]))
	f.Add(cat(hello, result, fail))
	f.Add(cat(hello))

	f.Fuzz(func(t *testing.T, data []byte) {
		coordSide, workerSide := net.Pipe()
		defer coordSide.Close()
		go io.Copy(io.Discard, coordSide) // whatever the worker sends back
		go func() {
			coordSide.Write(data)
			coordSide.Close() // end of stream
		}()
		run := func(ctx context.Context, a RangeAssignment, emit func(int, analyze.Sink, string, int) error) error {
			if a.Lo < 0 || a.Lo >= a.Hi || a.Hi > a.Cells {
				t.Errorf("runner handed invalid span [%d, %d) of %d", a.Lo, a.Hi, a.Cells)
				return nil
			}
			// Emit at most two cells: a fuzzed span can name billions.
			for cell := a.Lo; cell < a.Hi && cell < a.Lo+2; cell++ {
				if err := emit(cell, analyze.NewBreakdownAccumulator(), analyze.ShardMeta(a.Provenance, cell), 0); err != nil {
					return err
				}
			}
			return nil
		}
		served := make(chan struct{})
		go func() {
			defer close(served)
			ServeRangeConn(context.Background(), workerSide, 0, run)
			workerSide.Close()
		}()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("worker did not return after the coordinator stream ended")
		}
	})
}
