package obs

// W3C Trace Context (https://www.w3.org/TR/trace-context/) support:
// parsing and formatting of the traceparent header, so layoutd spans
// stitch into a caller's distributed trace and cluster peer hops carry
// one trace ID end to end.
//
// The wire form is fixed-width lowercase hex:
//
//	version "-" trace-id "-" parent-id "-" trace-flags
//	  00    -  32 hex    -   16 hex    -   2 hex
//
// Both ParseTraceparent and AppendTraceparent are allocation-free on
// the hot path (gated in scripts/bench_gates.txt): the parser returns
// substrings of its input, and the formatter appends into the caller's
// buffer. Legacy compatibility: trace IDs minted before the W3C
// widening were 16 hex chars; the parser accepts a 16-hex trace-id
// field, and the formatter left-pads short IDs with zeros so a legacy
// ID still produces a spec-valid header.

// TraceparentHeader is the canonical header name (HTTP canonicalizes
// case, so "traceparent" and "Traceparent" are the same header).
const TraceparentHeader = "Traceparent"

// Traceparent is a parsed traceparent header.
type Traceparent struct {
	TraceID string // 32 (or legacy 16) lowercase hex chars, not all zero
	SpanID  string // 16 lowercase hex chars, not all zero
	Sampled bool   // trace-flags bit 0
}

const (
	traceIDHexLen       = 32
	legacyTraceIDHexLen = 16
	spanIDHexLen        = 16
	// MaxTraceparentLen is the byte length of a formatted header:
	// version + trace-id + parent-id + flags + three separators.
	MaxTraceparentLen = 2 + 1 + traceIDHexLen + 1 + spanIDHexLen + 1 + 2
	legacyLen         = 2 + 1 + legacyTraceIDHexLen + 1 + spanIDHexLen + 1 + 2
)

// ValidTraceID reports whether s is an acceptable layoutd trace ID: 32
// lowercase hex chars (the W3C width) or the legacy 16-hex width, and
// not all zeros (the W3C invalid marker).
func ValidTraceID(s string) bool {
	if len(s) != traceIDHexLen && len(s) != legacyTraceIDHexLen {
		return false
	}
	return allLowerHex(s) && !allZero(s)
}

// ParseTraceparent parses a traceparent header value. It accepts any
// known version except the invalid 0xff, requires lowercase hex (per
// spec — uppercase is invalid on the wire), rejects all-zero trace and
// span IDs, and additionally accepts the 39-char legacy form whose
// trace-id field is 16 hex chars (a pre-widening layoutd node). The
// returned fields are substrings of h: no allocation.
func ParseTraceparent(h string) (Traceparent, bool) {
	var tp Traceparent
	if len(h) < legacyLen {
		return tp, false
	}
	if !isLowerHexByte(h[0]) || !isLowerHexByte(h[1]) || h[2] != '-' {
		return tp, false
	}
	if h[0] == 'f' && h[1] == 'f' {
		return tp, false // version 0xff is forbidden
	}
	// Field widths decide the form: standard has its second separator
	// at byte 35, the legacy form at byte 19.
	var idEnd int
	switch {
	case len(h) >= MaxTraceparentLen && h[3+traceIDHexLen] == '-':
		idEnd = 3 + traceIDHexLen
	case h[3+legacyTraceIDHexLen] == '-':
		idEnd = 3 + legacyTraceIDHexLen
	default:
		return tp, false
	}
	traceID := h[3:idEnd]
	spanStart := idEnd + 1
	spanEnd := spanStart + spanIDHexLen
	// spanEnd+3 = separator + two flag chars.
	if len(h) < spanEnd+3 || h[spanEnd] != '-' {
		return tp, false
	}
	spanID := h[spanStart:spanEnd]
	f1, f2 := h[spanEnd+1], h[spanEnd+2]
	if !isLowerHexByte(f1) || !isLowerHexByte(f2) {
		return tp, false
	}
	if len(h) > spanEnd+3 {
		// Trailing data is only legal on future versions, and then only
		// after a separator (version 00 is exactly the fixed form).
		if h[0] == '0' && h[1] == '0' {
			return tp, false
		}
		if h[spanEnd+3] != '-' {
			return tp, false
		}
	}
	if !allLowerHex(traceID) || allZero(traceID) {
		return tp, false
	}
	if !allLowerHex(spanID) || allZero(spanID) {
		return tp, false
	}
	tp.TraceID = traceID
	tp.SpanID = spanID
	tp.Sampled = hexNibble(f2)&0x1 == 1
	return tp, true
}

// AppendTraceparent appends a version-00 traceparent header for the
// given IDs to dst and returns the extended slice. A legacy 16-hex
// trace ID is left-padded with zeros to the W3C width. When dst has
// capacity MaxTraceparentLen the call allocates nothing. The IDs are
// not validated — pass IDs from NewTraceID/NewSpanID/ParseTraceparent.
func AppendTraceparent(dst []byte, traceID, spanID string, sampled bool) []byte {
	dst = append(dst, '0', '0', '-')
	for i := len(traceID); i < traceIDHexLen; i++ {
		dst = append(dst, '0')
	}
	dst = append(dst, traceID...)
	dst = append(dst, '-')
	dst = append(dst, spanID...)
	if sampled {
		dst = append(dst, '-', '0', '1')
	} else {
		dst = append(dst, '-', '0', '0')
	}
	return dst
}

// FormatTraceparent renders a version-00 traceparent header string.
// Convenience wrapper over AppendTraceparent for call sites that are
// about to cross a network boundary anyway.
func FormatTraceparent(traceID, spanID string, sampled bool) string {
	buf := make([]byte, 0, MaxTraceparentLen)
	return string(AppendTraceparent(buf, traceID, spanID, sampled))
}

func isLowerHexByte(b byte) bool {
	return (b >= '0' && b <= '9') || (b >= 'a' && b <= 'f')
}

func hexNibble(b byte) byte {
	if b >= 'a' {
		return b - 'a' + 10
	}
	return b - '0'
}

func allLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if !isLowerHexByte(s[i]) {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}
