package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// FuzzTraceRoundTrip feeds arbitrary bytes to the CLTR reader. Valid
// containers must round-trip byte-identically through decode→re-encode;
// corrupt magic/version/truncated varints must surface as errors, never
// panics or silent truncation.
func FuzzTraceRoundTrip(f *testing.F) {
	// Well-formed seeds of several shapes.
	for _, syms := range [][]int32{
		{},
		{0},
		{5, 5, 4, 1000000, 0, 7},
		{1, 2, 3, 2, 1, 2, 3, 2},
	} {
		var buf bytes.Buffer
		if _, err := New(syms).WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Corrupt seeds: bad magic, bad version, truncated count/body,
	// negative symbol, huge declared count.
	f.Add([]byte("XXXX\x01\x00"))
	f.Add([]byte("CLTR\x09\x00"))
	f.Add([]byte("CLTR\x01\xff"))
	f.Add([]byte("CLTR\x01\x05\x02"))
	f.Add([]byte("CLTR\x01\x01\x01")) // delta -1 from 0: negative symbol
	f.Add([]byte("CLTR\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	// Adversarial corpus: truncated varints, oversized declared
	// lengths, and mid-record EOF in every position a varint can be cut.
	f.Add([]byte("CLTR"))                                                 // EOF before version
	f.Add([]byte("CLTR\x01\x80"))                                         // count varint cut mid-continuation
	f.Add([]byte("CLTR\x01\x80\x80\x80"))                                 // deeper continuation, still cut
	f.Add([]byte("CLTR\x01\x02\x02\x80"))                                 // second delta cut mid-continuation
	f.Add([]byte("CLTR\x01\x03\x02\x02"))                                 // declares 3, body holds 2
	f.Add([]byte("CLTR\x01\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01")) // 11-byte varint: overflow
	f.Add(append([]byte("CLTR\x01\x84\x80\x80\x80\x08"), 0x02))           // count just over MaxFileCount
	f.Add([]byte("CLTR\x01\x02\xfe\xff\xff\xff\x0f"))                     // delta jumps past the symbol cap

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			return // rejected is fine; panicking is not
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		tr2, err := ReadFrom(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decode of re-encoded trace failed: %v", err)
		}
		if !reflect.DeepEqual(tr.Syms, tr2.Syms) && !(len(tr.Syms) == 0 && len(tr2.Syms) == 0) {
			t.Fatal("round trip changed the symbol sequence")
		}
		var buf2 bytes.Buffer
		if _, err := tr2.WriteTo(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("canonical encoding is not byte-stable")
		}
	})
}

func TestDecoderStreamsIncrementally(t *testing.T) {
	syms := []int32{3, 1, 4, 1, 5, 9, 2, 6}
	var buf bytes.Buffer
	if _, err := New(syms).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != len(syms) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(syms))
	}
	for i, want := range syms {
		got, err := d.Next()
		if err != nil {
			t.Fatalf("Next(%d): %v", i, err)
		}
		if got != want {
			t.Fatalf("Next(%d) = %d, want %d", i, got, want)
		}
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("Next past end = %v, want io.EOF", err)
	}
}

func TestDecoderErrorsCarryOffsets(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "reading magic"},
		{"bad magic", []byte("XXXX\x01\x00"), "bad magic"},
		{"bad version", []byte("CLTR\x09\x00"), "unsupported version"},
		{"truncated count", []byte("CLTR\x01"), "reading count"},
		{"truncated body", []byte("CLTR\x01\x05\x02"), "occurrence 1"},
		{"negative symbol", []byte("CLTR\x01\x01\x01"), "invalid symbol"},
	}
	for _, c := range cases {
		_, err := ReadFrom(bytes.NewReader(c.data))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !bytes.Contains([]byte(err.Error()), []byte(c.want)) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
		if !bytes.Contains([]byte(err.Error()), []byte("offset")) &&
			c.name != "bad version" && c.name != "negative symbol" {
			t.Errorf("%s: error %q carries no offset", c.name, err)
		}
	}
}

// TestDecoderAdversarialInputs pins the failure mode for hostile
// containers: truncated varints, oversized declared lengths, and
// mid-record EOF must all return wrapped, offset-carrying errors —
// never a panic, a silent truncation, or a bare io.EOF that a caller
// could mistake for clean end-of-stream.
func TestDecoderAdversarialInputs(t *testing.T) {
	hugeCount := append([]byte("CLTR\x01"), 0x84, 0x80, 0x80, 0x80, 0x08) // 2^31+4 > MaxFileCount
	overflowVarint := append([]byte("CLTR\x01"),
		0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
	cases := []struct {
		name      string
		data      []byte
		wantMsg   string
		wantUnEOF bool // error chain must carry io.ErrUnexpectedEOF
	}{
		{"header cut before version", []byte("CLTR"), "reading version", true},
		{"count varint cut", []byte("CLTR\x01\x80"), "reading count", true},
		{"count varint cut deep", []byte("CLTR\x01\x80\x80\x80"), "reading count", true},
		{"oversized declared count", hugeCount, "exceeds limit", false},
		{"count varint overflow", overflowVarint, "reading count", false},
		{"mid-record EOF", []byte("CLTR\x01\x03\x02\x02"), "occurrence 2", true},
		{"delta varint cut", []byte("CLTR\x01\x02\x02\x80"), "occurrence 1", true},
		{"delta past symbol cap", []byte("CLTR\x01\x02\xfe\xff\xff\xff\x0f"), "invalid symbol", false},
	}
	for _, c := range cases {
		_, err := ReadFrom(bytes.NewReader(c.data))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantMsg) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantMsg)
		}
		if !strings.Contains(err.Error(), "offset") {
			t.Errorf("%s: error %q carries no offset", c.name, err)
		}
		if c.wantUnEOF && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: error %q does not wrap io.ErrUnexpectedEOF", c.name, err)
		}
		if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: error %q leaks a bare io.EOF", c.name, err)
		}
	}
}

// TestDecodeBoundedAllocation: a header that declares an enormous
// occurrence count must not force an enormous up-front allocation —
// the decoder caps its capacity hint and grows only as payload bytes
// actually validate.
func TestDecodeBoundedAllocation(t *testing.T) {
	// Declares MaxFileCount occurrences; delivers three bytes of body.
	data := append([]byte("CLTR\x01"), 0x80, 0x80, 0x80, 0x80, 0x08) // uvarint(1<<31)
	data = append(data, 0x02, 0x02, 0x02)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ReadFrom(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated 2^31-record container was accepted")
	}
	// The 1<<20-symbol cap is 4 MiB; leave slack for test-harness noise
	// but stay far below the 8 GiB a trusting decoder would reserve.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Errorf("decoding a lying header allocated %d bytes", grew)
	}
}

func TestDigestIsContentAddressed(t *testing.T) {
	a := New([]int32{1, 2, 3})
	b := New([]int32{1, 2, 3})
	c := New([]int32{1, 2, 4})
	if a.Digest() != b.Digest() {
		t.Error("equal traces have different digests")
	}
	if a.Digest() == c.Digest() {
		t.Error("different traces share a digest")
	}
	if len(a.Digest()) != 64 {
		t.Errorf("digest %q is not hex sha-256", a.Digest())
	}
}

func TestHashingReaderMatchesDigest(t *testing.T) {
	tr := New([]int32{10, 20, 30, 25, 10})
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	hr := NewHashingReader(bytes.NewReader(buf.Bytes()))
	got, err := ReadFrom(hr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, hr); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Syms, tr.Syms) {
		t.Fatal("decode through HashingReader changed the trace")
	}
	if hr.Sum() != tr.Digest() {
		t.Errorf("streamed digest %s != canonical digest %s", hr.Sum(), tr.Digest())
	}
}

// nextLoop decodes data with a loop of Next, the byte-wise reference:
// the symbols delivered, the error that ended the loop (nil at a clean
// end), and the decoder's final offset. ok is false when the header is
// rejected.
func nextLoop(data []byte) (syms []int32, err error, off int64, ok bool) {
	d, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		return nil, err, 0, false
	}
	for {
		s, err := d.Next()
		if err == io.EOF {
			return syms, nil, d.Offset(), true
		}
		if err != nil {
			return syms, err, d.Offset(), true
		}
		syms = append(syms, s)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// container builds a CLTR container declaring count occurrences over
// the given raw payload bytes.
func container(count uint64, payload ...[]byte) []byte {
	out := binary.AppendUvarint([]byte("CLTR\x01"), count)
	for _, p := range payload {
		out = append(out, p...)
	}
	return out
}

// oneByteRun returns n one-byte deltas alternating +1 and -1, which keep
// the running symbol in {0, 1}.
func oneByteRun(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = 2 - byte(i%2) // zig-zag +1, then -1
	}
	return out
}

// straddle places varint v so that it starts on the last byte of the
// decoder's first 4,096-byte buffer fill, after a run of one-byte
// deltas, and follows it with a few more.
func straddle(v []byte) []byte {
	head := len(container(1 << 13)) // the count takes two bytes
	run := oneByteRun(4095 - head)
	return container(uint64(len(run)+1+4), run, v, oneByteRun(4))
}

// FuzzDecoderMatchesNext: for any container bytes and chunk size,
// NextChunk and Decode, which decode varints in place from the buffered
// bytes, must deliver the symbols, the error text and the final
// Offset() of a loop of Next, whether the reader hands over the bytes
// whole or in ever smaller reads.
func FuzzDecoderMatchesNext(f *testing.F) {
	var zig [binary.MaxVarintLen64]byte
	delta := func(x int64) []byte { return zig[:binary.PutVarint(zig[:], x)] }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	run := oneByteRun(40)
	ten := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}    // non-minimal 0
	tenBig := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01} // 1<<63: out of range
	eleven := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}

	f.Add([]byte("CLTR\x01\x01\x80\x00"), uint16(1)) // non-minimal varint decodes to [0]
	f.Add(encodeTrace(f, []int32{5, 5, 4, 1000000, 0, 7, 7, 8, 9, 3, 1 << 20, 2, 2, 1}), uint16(3))
	f.Add(container(43, run, []byte{0x80, 0x00}, []byte{0x82, 0x00}, delta(-1)), uint16(5))
	f.Add(container(42, run, ten, delta(3)), uint16(64))
	f.Add(container(42, run, tenBig, delta(3)), uint16(64))
	f.Add(container(42, run, eleven, delta(3)), uint16(64))
	f.Add(container(42, run, delta(1<<30), delta(0)), uint16(7))   // the largest symbol
	f.Add(container(42, run, delta(1<<30+1), delta(0)), uint16(7)) // one past it
	f.Add(container(42, run, delta(-2), delta(5)), uint16(2))      // running symbol goes negative
	f.Add(cat(container(40, run), []byte("trailing bytes")), uint16(9))
	f.Add(container(45, run), uint16(16)) // declares more than it holds
	for _, v := range [][]byte{delta(200), delta(100000), ten, eleven, delta(1<<30 + 1)} {
		f.Add(straddle(v), uint16(1000))
	}

	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		want, wantErr, wantOff, ok := nextLoop(data)
		if !ok {
			return
		}
		readers := map[string]func() io.Reader{
			"whole": func() io.Reader { return bytes.NewReader(data) },
			"half":  func() io.Reader { return iotest.HalfReader(bytes.NewReader(data)) },
		}
		for name, rd := range readers {
			d, err := NewDecoder(rd())
			if err != nil {
				t.Fatalf("%s: header rejected only here: %v", name, err)
			}
			got, err := chunkedDecode(d, int(chunk)%1024+1)
			if !slices.Equal(got, want) || errText(err) != errText(wantErr) || d.Offset() != wantOff {
				t.Fatalf("%s NextChunk: %d symbols, err %q, offset %d; Next: %d symbols, err %q, offset %d",
					name, len(got), errText(err), d.Offset(), len(want), errText(wantErr), wantOff)
			}
			d, _ = NewDecoder(rd())
			tr, err := d.Decode()
			if errText(err) != errText(wantErr) || d.Offset() != wantOff {
				t.Fatalf("%s Decode: err %q, offset %d; Next: err %q, offset %d",
					name, errText(err), d.Offset(), errText(wantErr), wantOff)
			}
			if err == nil && !slices.Equal(tr.Syms, want) {
				t.Fatalf("%s Decode: symbols differ from Next's", name)
			}
		}
	})
}
