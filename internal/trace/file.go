package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// File format: the instrumentation phase of the paper's system records
// the block/function trace "in a file" together with a mapping file. The
// format here is a small self-describing binary container:
//
//	magic "CLTR" | version u8 | count uvarint | deltas (zig-zag varint)
//
// Symbols are delta-encoded because consecutive block IDs in real traces
// are strongly clustered, which makes the common case one byte per
// occurrence.

const (
	fileMagic   = "CLTR"
	fileVersion = 1
)

// MaxFileCount bounds the occurrence count a decoder accepts, so a
// corrupt or hostile header cannot request an absurd allocation.
const MaxFileCount = 1 << 31

// WriteTo writes the trace in the binary container format.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	n, err := bw.WriteString(fileMagic)
	written += int64(n)
	if err != nil {
		return written, err
	}
	if err := bw.WriteByte(fileVersion); err != nil {
		return written, err
	}
	written++
	var buf [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(buf[:], uint64(len(t.Syms)))
	n, err = bw.Write(buf[:k])
	written += int64(n)
	if err != nil {
		return written, err
	}
	prev := int64(0)
	for _, s := range t.Syms {
		k := binary.PutVarint(buf[:], int64(s)-prev)
		n, err = bw.Write(buf[:k])
		written += int64(n)
		if err != nil {
			return written, err
		}
		prev = int64(s)
	}
	return written, bw.Flush()
}

// Decoder reads a CLTR container incrementally from an io.Reader, so a
// consumer (layoutd's upload path, tracedump on a pipe) never needs the
// whole file in memory. NewDecoder validates the header; Next yields one
// occurrence at a time and Decode drains the rest into a Trace.
//
// Every error is wrapped with the byte offset at which decoding failed
// and, where useful, what was expected — a truncated or corrupt upload
// turns into a diagnosable message rather than a raw io error.
type Decoder struct {
	br    *bufio.Reader
	count uint64 // declared occurrence count
	read  uint64 // occurrences decoded so far
	prev  int64  // last decoded symbol (delta base)
	off   int64  // byte offset consumed, for error context
}

// NewDecoder reads and validates the container header. The reader is
// left positioned at the first occurrence delta.
func NewDecoder(r io.Reader) (*Decoder, error) {
	d := &Decoder{br: bufio.NewReader(r), prev: 0}
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(d.br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic at offset %d: %w", d.off, noEOF(err))
	}
	d.off += int64(len(magic))
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("trace: bad magic %q at offset 0 (want %q)", magic, fileMagic)
	}
	ver, err := d.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("trace: reading version at offset %d: %w", d.off, noEOF(err))
	}
	if ver != fileVersion {
		return nil, fmt.Errorf("trace: unsupported version %d at offset %d (want %d)", ver, d.off-1, fileVersion)
	}
	start := d.off
	count, err := binary.ReadUvarint(d)
	if err != nil {
		return nil, fmt.Errorf("trace: reading count at offset %d: %w", start, noEOF(err))
	}
	if count > MaxFileCount {
		return nil, fmt.Errorf("trace: count %d at offset %d exceeds limit %d", count, start, int64(MaxFileCount))
	}
	d.count = count
	return d, nil
}

// ReadByte implements io.ByteReader while tracking the byte offset, so
// varint reads through the decoder keep error context accurate.
func (d *Decoder) ReadByte() (byte, error) {
	b, err := d.br.ReadByte()
	if err == nil {
		d.off++
	}
	return b, err
}

// Len returns the declared occurrence count.
func (d *Decoder) Len() int { return int(d.count) }

// Offset returns the number of container bytes consumed so far.
func (d *Decoder) Offset() int64 { return d.off }

// Next decodes one occurrence. It returns io.EOF after the declared
// count has been delivered; any other error means a corrupt or
// truncated container.
func (d *Decoder) Next() (int32, error) {
	if d.read >= d.count {
		return 0, io.EOF
	}
	start := d.off
	delta, err := binary.ReadVarint(d)
	if err != nil {
		return 0, fmt.Errorf("trace: reading occurrence %d at offset %d: %w", d.read, start, noEOF(err))
	}
	d.prev += delta
	if d.prev < 0 || d.prev > 1<<30 {
		return 0, fmt.Errorf("trace: occurrence %d at offset %d decodes to invalid symbol %d", d.read, start, d.prev)
	}
	d.read++
	return int32(d.prev), nil
}

// NextChunk decodes up to len(dst) occurrences into dst and returns how
// many it wrote. It is the streaming bulk form of Next: a consumer that
// analyzes a trace while it uploads calls NextChunk in a loop with a
// reused fixed-size buffer, so decoding allocates nothing at steady
// state and in-flight memory stays bounded by the buffer, not the trace.
//
// NextChunk returns n > 0 with a nil error as long as occurrences
// remain; (0, io.EOF) after the declared count has been delivered; and
// (n, err) with n possibly non-zero when the container turns out to be
// corrupt or truncated mid-chunk — the occurrences decoded before the
// failure are valid and err carries the byte offset, exactly like Next.
//
// Varints are decoded in place from the reader's buffered bytes. One
// that is not whole in the buffer, that overflows, or whose symbol is
// out of range is left to Next, which refills the buffer or reports
// the error, so NextChunk delivers exactly what a loop of Next would.
func (d *Decoder) NextChunk(dst []int32) (int, error) {
	if d.read >= d.count {
		return 0, io.EOF
	}
	if left := d.count - d.read; uint64(len(dst)) > left {
		dst = dst[:left]
	}
	n := 0
	for {
		n += d.decodeBuffered(dst[n:])
		if n == len(dst) {
			return n, nil
		}
		s, err := d.Next()
		if err != nil {
			return n, err
		}
		dst[n] = s
		n++
	}
}

// decodeBuffered decodes occurrences into dst from the bytes already in
// the reader's buffer, stopping before the first varint it cannot
// accept, and returns how many it wrote. The caller bounds dst by the
// occurrences left.
func (d *Decoder) decodeBuffered(dst []int32) int {
	// Peeking or discarding no more than is buffered reads nothing and
	// cannot fail.
	buf, _ := d.br.Peek(d.br.Buffered())
	prev := d.prev
	i, n := 0, 0
	for n < len(dst) && i < len(buf) {
		var ux uint64
		k := 1
		if b := buf[i]; b < 0x80 {
			ux = uint64(b)
		} else if i+1 < len(buf) && buf[i+1] < 0x80 {
			ux = uint64(b&0x7f) | uint64(buf[i+1])<<7
			k = 2
		} else if ux, k = binary.Uvarint(buf[i:]); k <= 0 {
			break // cut by the buffer's end, or an overflow
		}
		s := prev + (int64(ux>>1) ^ -int64(ux&1)) // zig-zag, as ReadVarint
		if uint64(s) > 1<<30 {
			break // negative or past the symbol cap
		}
		prev = s
		dst[n] = int32(s)
		n++
		i += k
	}
	_, _ = d.br.Discard(i)
	d.off += int64(i)
	d.read += uint64(n)
	d.prev = prev
	return n
}

// Decode drains the remaining occurrences into a Trace. The initial
// allocation is capped so a lying header cannot force a huge up-front
// allocation before any byte of payload has been validated.
func (d *Decoder) Decode() (*Trace, error) {
	capHint := d.count - d.read
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	syms := make([]int32, 0, capHint)
	for d.read < d.count {
		if len(syms) == cap(syms) {
			syms = slices.Grow(syms, 1)
		}
		n, err := d.NextChunk(syms[len(syms):cap(syms)])
		syms = syms[:len(syms)+n]
		if err != nil {
			return nil, err
		}
	}
	return &Trace{Syms: syms}, nil
}

// noEOF converts a bare io.EOF inside a container into
// io.ErrUnexpectedEOF: the header promised more bytes than arrived.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadFrom parses a trace written by WriteTo.
func ReadFrom(r io.Reader) (*Trace, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	return d.Decode()
}
