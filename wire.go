package repro

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"slices"
	"strconv"
	"strings"
)

// decodeStrict is the wire format's reference decode: encoding/json with
// unknown fields rejected and nothing but whitespace after the document.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

// decodeWire decodes data into v with scan when data is canonical and with
// decodeStrict otherwise. Each input takes exactly one of the two paths.
func decodeWire[T any](data []byte, v *T, scan func(*wireScanner, *T) bool) error {
	if scanCanonical(data, v, scan) {
		return nil
	}
	*v = *new(T)
	return decodeStrict(data, v)
}

// scanCanonical reports whether data is canonical, decoding it into v with
// scan if so; otherwise v holds whatever was scanned before the first byte
// outside the subset.
func scanCanonical[T any](data []byte, v *T, scan func(*wireScanner, *T) bool) bool {
	w := wireScanner{s: string(data)}
	w.skip()
	return scan(&w, v) && w.i == len(w.s)
}

// wireScanner reads without reflection the canonical subset of the wire
// format, what json.Marshal of the wire types writes: exact lower-case keys,
// each at most once; printable-ASCII strings without escapes; non-negative
// integers of at most 18 digits without a leading zero, fraction or
// exponent; true and false; non-empty arrays and objects; space, tab and
// newline. Every method reports false at the first byte outside the subset.
// Strings are substrings of s, the body's one copy.
type wireScanner struct {
	s string
	i int
}

var (
	networkKeys   = []string{"arch", "name", "layers", "options"}
	layerKeys     = []string{"name", "batch", "cin", "hin", "win", "cout", "hker", "wker", "stride", "pad", "groups", "repeat"}
	optionKeys    = []string{"budget", "seed", "winograd", "kinds"}
	forwardedKeys = []string{"origin", "attempt", "network"}
)

// skip passes whitespace. Every token is read from where the scan stands and
// followed by a skip, so a document ends at len(s).
func (w *wireScanner) skip() {
	for w.i < len(w.s) && (w.s[w.i] == ' ' || w.s[w.i] == '\n' || w.s[w.i] == '\t') {
		w.i++
	}
}

// next consumes c, if it comes next.
func (w *wireScanner) next(c byte) bool {
	if w.i == len(w.s) || w.s[w.i] != c {
		return false
	}
	w.i++
	w.skip()
	return true
}

func (w *wireScanner) str(dst *string) bool {
	if w.i == len(w.s) || w.s[w.i] != '"' {
		return false
	}
	for j := w.i + 1; j < len(w.s); j++ {
		switch c := w.s[j]; {
		case c == '"':
			*dst, w.i = w.s[w.i+1:j], j
			return w.next('"')
		case c < ' ' || c > '~' || c == '\\':
			return false
		}
	}
	return false
}

func scanInt[T int | int64](w *wireScanner, dst *T) bool {
	start, v := w.i, int64(0)
	for ; w.i < len(w.s) && '0' <= w.s[w.i] && w.s[w.i] <= '9'; w.i++ {
		v = v*10 + int64(w.s[w.i]-'0')
	}
	if n := w.i - start; n == 0 || n > 18 || n > 1 && w.s[start] == '0' {
		return false
	}
	w.skip()
	*dst = T(v)
	return int64(*dst) == v // a 32-bit int takes the reference's overflow error
}

func (w *wireScanner) bool(dst **bool) bool {
	v := strings.HasPrefix(w.s[w.i:], "true")
	if !v && !strings.HasPrefix(w.s[w.i:], "false") {
		return false
	}
	w.i += len(strconv.FormatBool(v))
	w.skip()
	*dst = &v
	return true
}

// fields reads an object whose keys are drawn from keys, each key's value
// into the pointer at its index in dst.
func (w *wireScanner) fields(keys []string, dst ...any) bool {
	var seen uint32
	return w.list('{', '}', func() bool {
		var k string
		if !w.str(&k) || !w.next(':') {
			return false
		}
		i := slices.Index(keys, k)
		if i < 0 || seen&(1<<i) != 0 {
			return false
		}
		seen |= 1 << i
		switch p := dst[i].(type) {
		case *string:
			return w.str(p)
		case *int:
			return scanInt(w, p)
		case *int64:
			return scanInt(w, p)
		case **bool:
			return w.bool(p)
		case *[]string:
			return w.list('[', ']', func() bool { *p = append(*p, ""); return w.str(&(*p)[len(*p)-1]) })
		case *[]LayerDescription:
			// Every layer opens a brace, so their count bounds the layers.
			*p = make([]LayerDescription, 0, min(strings.Count(w.s[w.i:], "{"), MaxDescriptionLayers+1))
			return w.list('[', ']', func() bool { *p = append(*p, LayerDescription{}); return w.layer(&(*p)[len(*p)-1]) })
		case **RequestOptions:
			*p = new(RequestOptions)
			return w.options(*p)
		case *NetworkDescription:
			return w.network(p)
		}
		return false
	})
}

// list reads a non-empty array or object, calling elem to read each element.
func (w *wireScanner) list(open, close byte, elem func() bool) bool {
	if !w.next(open) {
		return false
	}
	for elem() {
		if w.next(close) {
			return true
		}
		if !w.next(',') {
			return false
		}
	}
	return false
}

func (w *wireScanner) network(d *NetworkDescription) bool {
	return w.fields(networkKeys, &d.Arch, &d.Name, &d.Layers, &d.Options)
}

func (w *wireScanner) layer(l *LayerDescription) bool {
	return w.fields(layerKeys, &l.Name, &l.Batch, &l.Cin, &l.Hin, &l.Win, &l.Cout, &l.Hker, &l.Wker,
		&l.Stride, &l.Pad, &l.Groups, &l.Repeat)
}

func (w *wireScanner) options(o *RequestOptions) bool {
	return w.fields(optionKeys, &o.Budget, &o.Seed, &o.Winograd, &o.Kinds)
}

func (w *wireScanner) forwarded(f *ForwardedTuneRequest) bool {
	return w.fields(forwardedKeys, &f.Origin, &f.Attempt, &f.Network)
}
