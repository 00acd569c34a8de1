package ps

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Scanner reads PostScript tokens. `{ ... }` bodies are scanned into
// executable arrays; `[`, `]`, `<<`, and `>>` are returned as executable
// names and interpreted by operators of the same name.
//
// A scanner works on one in-memory buffer. A string source is the whole
// buffer and is scanned in place: names, words, and strings without
// escapes are slices of it, and a string with escapes is unescaped once,
// after a pre-scan has found its closing paren. A
// reader source (a file, such as the pipe from the expression server)
// appends to the buffer only when the scanner needs a byte past its
// end, so the reader is never read ahead of the token being scanned.
type Scanner struct {
	buf  string
	pos  int // next byte of buf to scan
	tok  int // start of the token being scanned; a refill may drop what precedes it
	r    io.Reader
	err  error           // sticky read error from r
	rbuf []byte          // r's read buffer, allocated on the first refill
	acc  strings.Builder // what buf is a view of, for a reader source
	name string
	line int
}

// readSize is how much one refill asks of a reader.
const readSize = 4096

// NewScanner returns a scanner reading from r; name labels errors.
func NewScanner(r io.Reader, name string) *Scanner {
	return &Scanner{r: r, name: name, line: 1}
}

// NewStringScanner scans the given source text in place.
func NewStringScanner(src, name string) *Scanner {
	return &Scanner{buf: src, name: name, line: 1}
}

func (s *Scanner) errf(format string, args ...any) error {
	return &Error{Name: "syntaxerror", Cmd: fmt.Sprintf("%s:%d: %s", s.name, s.line, fmt.Sprintf(format, args...))}
}

// more reports whether a byte is available at pos, refilling from the
// reader when the buffer is exhausted.
func (s *Scanner) more() bool {
	return s.pos < len(s.buf) || s.fill()
}

// fill reads once more from the reader and appends what it got to the
// buffer. It reports false at the end of input or after a read error,
// which stays in s.err. buf is a view of acc, which only ever grows, so
// the tokens already sliced from it stay valid; once more than half of
// it precedes the current token, that part is dropped, which keeps the
// copying linear in the input however small the reads are.
func (s *Scanner) fill() bool {
	if s.r == nil || s.err != nil {
		return false
	}
	if s.rbuf == nil {
		s.rbuf = make([]byte, readSize)
	}
	// Give up on a reader that keeps returning nothing, as the standard
	// buffered reader does.
	for range 100 {
		n, err := s.r.Read(s.rbuf)
		if err != nil {
			s.err = err
		}
		if n > 0 {
			if s.tok > len(s.buf)/2 {
				keep := s.buf[s.tok:]
				s.acc.Reset()
				s.acc.WriteString(keep)
				s.pos -= s.tok
				s.tok = 0
			}
			s.acc.Write(s.rbuf[:n])
			s.buf = s.acc.String()
			return true
		}
		if err != nil {
			return false
		}
	}
	s.err = io.ErrNoProgress
	return false
}

// readErr is the error that ended the input, or nil at a clean end.
func (s *Scanner) readErr() error {
	if s.err == io.EOF {
		return nil
	}
	return s.err
}

// Character classes of the scanner.
const (
	cSpace   = 1 << iota // separates tokens
	cDelim               // ends a name or word and begins another token
	cStrStop             // needs attention inside a string: ( ) \ newline
)

var class = func() (t [256]uint8) {
	for _, c := range []byte(" \t\n\r\f\x00") {
		t[c] |= cSpace
	}
	for _, c := range []byte("()<>[]{}/%") {
		t[c] |= cDelim
	}
	for _, c := range []byte("()\\\n") {
		t[c] |= cStrStop
	}
	return t
}()

func isOctal(c byte) bool { return c >= '0' && c <= '7' }

// Next returns the next token, or io.EOF when the input is exhausted.
func (s *Scanner) Next() (Object, error) {
	for {
		s.tok = s.pos
		if !s.more() {
			if err := s.readErr(); err != nil {
				return Object{}, err
			}
			return Object{}, io.EOF
		}
		c := s.buf[s.pos]
		s.pos++
		switch {
		case c == '\n':
			s.line++
		case class[c]&cSpace != 0:
		case c == '%':
			s.skipComment()
		case c == '(':
			return s.scanString()
		case c == '{':
			return s.scanProc()
		case c == '}':
			return Object{}, s.errf("unmatched }")
		case c == '/':
			name, err := s.scanWord()
			if err != nil {
				return Object{}, err
			}
			return LitName(name), nil
		case c == '[' || c == ']':
			return ExecName(s.buf[s.pos-1 : s.pos]), nil
		case c == '<':
			if s.more() && s.buf[s.pos] == '<' {
				s.pos++
				return ExecName("<<"), nil
			}
			return Object{}, s.errf("hex strings are not in the dialect")
		case c == '>':
			if s.more() && s.buf[s.pos] == '>' {
				s.pos++
				return ExecName(">>"), nil
			}
			return Object{}, s.errf("unexpected >")
		case c == ')':
			return Object{}, s.errf("unmatched )")
		default:
			s.pos--
			word, err := s.scanWord()
			if err != nil {
				return Object{}, err
			}
			if o, ok := parseNumber(word); ok {
				return o, nil
			}
			return ExecName(word), nil
		}
	}
}

// skipComment consumes the rest of a comment and its newline. The end
// of input ends a comment too; Next then reports it.
func (s *Scanner) skipComment() {
	for s.more() {
		if i := strings.IndexByte(s.buf[s.pos:], '\n'); i >= 0 {
			s.pos += i + 1
			s.line++
			return
		}
		s.pos = len(s.buf)
		s.tok = s.pos
	}
}

// scanWord returns the run of regular characters at pos: the name of a
// `/name` or a bare word, possibly empty.
func (s *Scanner) scanWord() (string, error) {
	s.tok = s.pos
	for {
		for s.pos < len(s.buf) {
			if class[s.buf[s.pos]]&(cSpace|cDelim) != 0 {
				return s.buf[s.tok:s.pos], nil
			}
			s.pos++
		}
		if !s.fill() {
			if err := s.readErr(); err != nil {
				return "", err
			}
			return s.buf[s.tok:s.pos], nil
		}
	}
}

// scanString scans a string whose `(` has been consumed. A pre-scan
// finds the closing paren; a string without escapes is then a slice of
// the buffer, and one with escapes is unescaped into one allocation.
func (s *Scanner) scanString() (Object, error) {
	s.tok = s.pos
	escaped := false
	for depth := 1; ; {
		// Runs of ordinary bytes are skipped without a per-byte switch.
		i := s.pos
		for i < len(s.buf) && class[s.buf[i]]&cStrStop == 0 {
			i++
		}
		s.pos = i
		if !s.more() {
			return Object{}, s.errf("unterminated string")
		}
		c := s.buf[s.pos]
		s.pos++
		switch c {
		case '\n':
			s.line++
		case '(':
			depth++
		case ')':
			if depth--; depth == 0 {
				body := s.buf[s.tok : s.pos-1]
				if !escaped {
					return Str(body), nil
				}
				return Str(unescape(body)), nil
			}
		case '\\':
			// The escaped byte is skipped; the octal digits that may
			// follow it are ordinary bytes.
			if !s.more() {
				return Object{}, s.errf("unterminated string escape")
			}
			if s.buf[s.pos] == '\n' {
				s.line++
			}
			s.pos++
			escaped = true
		}
	}
}

// unescape returns the text of a string body whose escapes are all
// complete.
func unescape(body string) string {
	var b strings.Builder
	b.Grow(len(body))
	for {
		i := strings.IndexByte(body, '\\')
		if i < 0 {
			b.WriteString(body)
			return b.String()
		}
		b.WriteString(body[:i])
		c := body[i+1]
		body = body[i+2:]
		switch c {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case 'r':
			b.WriteByte('\r')
		case 'b':
			b.WriteByte('\b')
		case 'f':
			b.WriteByte('\f')
		case '\n':
			// line continuation: nothing
		default:
			if isOctal(c) {
				v := int(c - '0')
				for k := 0; k < 2 && body != "" && isOctal(body[0]); k++ {
					v = v*8 + int(body[0]-'0')
					body = body[1:]
				}
				c = byte(v)
			}
			b.WriteByte(c)
		}
	}
}

func (s *Scanner) scanProc() (Object, error) {
	var elems []Object
	for {
		s.tok = s.pos
		if !s.more() {
			return Object{}, s.errf("unterminated procedure")
		}
		switch c := s.buf[s.pos]; {
		case c == '\n':
			s.line++
			s.pos++
			continue
		case class[c]&cSpace != 0:
			s.pos++
			continue
		case c == '%':
			// Skipped here, not by Next: after the comment Next would
			// meet this procedure's closing brace as an unmatched one.
			s.pos++
			s.skipComment()
			continue
		case c == '}':
			s.pos++
			return Proc(elems...), nil
		}
		tok, err := s.Next()
		if err != nil {
			if err == io.EOF {
				return Object{}, s.errf("unterminated procedure")
			}
			return Object{}, err
		}
		elems = append(elems, tok)
	}
}

// parseNumber recognizes integers, reals, and radix literals like
// 16#000023d8 (§3 uses radix-16 addresses in loader tables).
func parseNumber(word string) (Object, bool) {
	// Every number starts with a digit, sign, or dot; checking that
	// first keeps names such as `e10` or `Inf` from being misread as
	// numbers and spares most names the failed parses.
	if word == "" {
		return Object{}, false
	}
	if c := word[0]; (c < '0' || c > '9') && c != '+' && c != '-' && c != '.' {
		return Object{}, false
	}
	if i := strings.IndexByte(word, '#'); i > 0 {
		base, err := strconv.ParseInt(word[:i], 10, 32)
		if err != nil || base < 2 || base > 36 {
			return Object{}, false
		}
		v, err := strconv.ParseInt(word[i+1:], int(base), 64)
		if err != nil {
			// Addresses can fill 32 bits; retry unsigned.
			u, uerr := strconv.ParseUint(word[i+1:], int(base), 64)
			if uerr != nil {
				return Object{}, false
			}
			return Int(int64(u)), true
		}
		return Int(v), true
	}
	if v, err := strconv.ParseInt(word, 10, 64); err == nil {
		return Int(v), true
	}
	if v, err := strconv.ParseFloat(word, 64); err == nil {
		return Real(v), true
	}
	return Object{}, false
}
