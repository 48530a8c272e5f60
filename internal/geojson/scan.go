package geojson

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the one FeatureCollection decoder. A byte scanner walks the
// document once and hands what it finds to a sink: Parse's sink builds the
// FeatureCollection, DecodePoints's sink appends Point features straight
// into dataset columns. Neither builds a generic JSON tree.
//
// The scanner accepts exactly the documents that encoding/json, decoding
// into FeatureCollection, accepted before it (reference_test.go keeps that
// decoder, and FuzzParse compares the two on every input):
//
//   - The input is one JSON value (RFC 8259, nesting at most 10 000 deep)
//     with only whitespace around it, and a top-level object.
//   - Member names match as encoding/json matches struct fields: after
//     unescaping, exactly or else by bytes.EqualFold, so "TYPE" is type and
//     "featureſ" (U+017F) is features.
//   - A repeated member decodes again into what the earlier one left. The
//     last "type" or "coordinates" wins, "geometry" and "properties"
//     objects merge, and a second "features" array decodes element by
//     element into the features already there (see merge).
//   - null leaves a string or struct member as it was, and empties
//     "features", "coordinates" and "properties".
//   - Any other JSON type where an object, array or string is wanted is an
//     error, and so is a number that encoding/json would have converted to
//     float64 (coordinates, properties) and that overflows it. Numbers in
//     members nobody reads are only checked against the grammar.
//
// Numbers are checked against the JSON grammar before strconv.ParseFloat
// runs on the same bytes, as encoding/json does, so every float is
// bit-identical to the one it produced (ParseFloat alone would also take
// "+1", ".5", "Inf" or "0x1p3").

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// sink receives the features of a collection as the scanner decodes them.
type sink interface {
	// properties merges one "properties" member of the current feature: the
	// raw bytes of an object or null, valid JSON, whose numbers the sink
	// converts (and refuses on overflow) itself.
	properties(raw []byte) error
	// feature ends the current feature with what its members left in f. An
	// error here is not a JSON error: the scanner reports it only if no
	// later "features" member replaces the array it came from.
	feature(f *feature) error
	// reset drops every feature: a "features" member replaced them.
	reset()
}

// geomKind is a geometry "type" value the decoders support.
type geomKind uint8

const (
	gUnsupported geomKind = iota
	gPoint
	gLineString
	gMultiLineString
	gPolygon
)

var geomNames = [...]string{gPoint: "Point", gLineString: "LineString",
	gMultiLineString: "MultiLineString", gPolygon: "Polygon"}

// feature is what one FeatureCollection element left after its members
// were decoded, the later ones over the earlier.
type feature struct {
	isFeature bool     // the last "type" string was "Feature"
	kind      geomKind // the last geometry "type" string
	kindRaw   []byte   // that string, raw, for the error message
	coords    []byte   // the last "coordinates" value, raw; nil if absent or null
	isPos     bool     // coords is a plain [x, y], already parsed into pos
	pos       [2]float64
}

// scanCollection scans data as a FeatureCollection into sk.
func scanCollection(data []byte, sk sink) error {
	s := scanner{data: data}
	i := s.ws(0)
	if i >= len(data) || data[i] != '{' {
		if i < len(data) && data[i] == 'n' {
			return fmt.Errorf("geojson: top-level value is null, want a FeatureCollection")
		}
		return s.typeErr(i, "FeatureCollection object")
	}
	var (
		isFC    bool
		f       feature // the element being decoded, reused: the sink keeps no pointer to it
		arrBuf  [4]int
		arrays  = arrBuf[:0] // "features" arrays since the last reset, by offset
		featErr error        // first sink error of the streamed array
	)
	reset := func() {
		sk.reset()
		arrays, featErr = arrays[:0], nil
	}
	end, err := s.object(i, 1, func(key []byte, esc bool, j int) (int, error) {
		switch {
		case keyIs(key, esc, "type"):
			return s.stringIs(j, "FeatureCollection", &isFC)
		case keyIs(key, esc, "features"):
			if j < len(data) && data[j] == 'n' {
				reset()
				return s.literal(j, "null")
			}
			if j >= len(data) || data[j] != '[' {
				return j, s.typeErr(j, "features array")
			}
			// The first array since a reset streams into the sink; a later
			// one is only validated here and merged at the end.
			stream, n := len(arrays) == 0, 0
			end, err := s.array(j, 2, func(k int) (int, error) {
				f = feature{}
				if !stream {
					n++
					return s.element(k, &f, nil)
				}
				end, err := s.element(k, &f, sk)
				if err == nil {
					if ferr := sk.feature(&f); ferr != nil && featErr == nil {
						featErr = fmt.Errorf("geojson: feature %d: %w", n, ferr)
					}
				}
				n++
				return end, err
			})
			if err == nil {
				if n == 0 {
					reset() // encoding/json sets an empty array afresh
				} else {
					arrays = append(arrays, j)
				}
			}
			return end, err
		}
		return s.value(j, 1, false)
	})
	if err != nil {
		return err
	}
	if end = s.ws(end); end != len(data) {
		return s.syntaxErr(end, "after top-level value")
	}
	if len(arrays) > 1 {
		sk.reset()
		featErr = s.merge(arrays, sk)
	}
	if !isFC {
		return fmt.Errorf("geojson: top-level type is not FeatureCollection")
	}
	return featErr
}

// merge decodes the repeated "features" arrays at offs the way
// encoding/json decodes a repeated array into one slice: element i of each
// array in turn merges into feature i, a shorter array leaves the features
// past its end as they were, and the last array fixes the length. The
// arrays were validated on the first pass.
func (s *scanner) merge(offs []int, sk sink) error {
	next := make([]int, len(offs)) // each array's next element, or its ']'
	for k, off := range offs {
		next[k] = s.ws(off + 1)
	}
	last := len(offs) - 1
	var featErr error
	for i := 0; s.data[next[last]] != ']'; i++ {
		var f feature
		for k, j := range next {
			if s.data[j] == ']' {
				continue
			}
			end, err := s.element(j, &f, sk)
			if err != nil {
				return err
			}
			if end = s.ws(end); s.data[end] == ',' {
				end = s.ws(end + 1)
			}
			next[k] = end
		}
		if err := sk.feature(&f); err != nil && featErr == nil {
			featErr = fmt.Errorf("geojson: feature %d: %w", i, err)
		}
	}
	return featErr
}

// element decodes one "features" element into f: an object's members over
// what f holds, null as no change. sk, if not nil, gets its "properties".
func (s *scanner) element(i int, f *feature, sk sink) (int, error) {
	d := s.data
	if i < len(d) && d[i] == 'n' {
		return s.literal(i, "null")
	}
	if i >= len(d) || d[i] != '{' {
		return i, s.typeErr(i, "Feature object")
	}
	return s.object(i, 3, func(key []byte, esc bool, j int) (int, error) {
		switch {
		case keyIs(key, esc, "type"):
			return s.stringIs(j, "Feature", &f.isFeature)
		case keyIs(key, esc, "geometry"):
			return s.geometry(j, f)
		case keyIs(key, esc, "properties"):
			if j >= len(d) || (d[j] != '{' && d[j] != 'n') {
				return j, s.typeErr(j, "properties object")
			}
			// A sink converts the numbers itself; without one they are
			// checked here.
			end, err := s.value(j, 3, sk == nil)
			if err == nil && sk != nil {
				err = sk.properties(d[j:end])
			}
			return end, err
		}
		return s.value(j, 3, false)
	})
}

// geometry decodes a "geometry" member into f.
func (s *scanner) geometry(i int, f *feature) (int, error) {
	d := s.data
	if i < len(d) && d[i] == 'n' {
		return s.literal(i, "null")
	}
	if i >= len(d) || d[i] != '{' {
		return i, s.typeErr(i, "geometry object")
	}
	return s.object(i, 4, func(key []byte, esc bool, j int) (int, error) {
		switch {
		case keyIs(key, esc, "type"):
			return s.geomType(j, f)
		case keyIs(key, esc, "coordinates"):
			return s.coordinates(j, f)
		}
		return s.value(j, 4, false)
	})
}

// geomType decodes a geometry "type" member into f.
func (s *scanner) geomType(i int, f *feature) (int, error) {
	d := s.data
	if i >= len(d) || d[i] != '"' {
		return s.stringIs(i, "", nil) // null, or a type error
	}
	end, esc, err := s.str(i)
	if err != nil {
		return end, err
	}
	f.kind, f.kindRaw = gUnsupported, d[i:end]
	for k, name := range geomNames {
		if k != int(gUnsupported) && strEq(d[i+1:end-1], esc, name) {
			f.kind = geomKind(k)
		}
	}
	return end, nil
}

// coordinates decodes a "coordinates" member into f. A plain [x, y], as
// every Point has, gets its two numbers parsed here, once.
func (s *scanner) coordinates(i int, f *feature) (int, error) {
	d := s.data
	f.coords, f.isPos = nil, false
	if x, y, end, ok := s.pair(i); ok {
		f.coords, f.isPos, f.pos = d[i:end], true, [2]float64{x, y}
		return end, nil
	}
	end, err := s.value(i, 4, true)
	if err == nil && d[i] != 'n' {
		f.coords = d[i:end]
	}
	return end, err
}

// pair reads an array of exactly two valid, in-range numbers at i. For
// anything else ok is false and the caller scans the value generically.
func (s *scanner) pair(i int) (x, y float64, end int, ok bool) {
	d := s.data
	if i >= len(d) || d[i] != '[' {
		return 0, 0, i, false
	}
	if x, i, ok = s.float(s.ws(i + 1)); !ok {
		return 0, 0, i, false
	}
	if i = s.ws(i); i >= len(d) || d[i] != ',' {
		return 0, 0, i, false
	}
	if y, i, ok = s.float(s.ws(i + 1)); !ok {
		return 0, 0, i, false
	}
	if i = s.ws(i); i >= len(d) || d[i] != ']' {
		return 0, 0, i, false
	}
	return x, y, i + 1, true
}

// position reads f's coordinates as an [x, y] position.
func (f *feature) position() ([2]float64, error) {
	if f.isPos {
		return f.pos, nil
	}
	return position(f.coords)
}

// geometry normalizes f's raw coordinates into the concrete arrays of its
// type, with the checks the encoding/json decoder made on its []any.
func (f *feature) geometry() (geometry, error) {
	name := geomNames[f.kind]
	switch f.kind {
	case gPoint:
		c, err := f.position()
		return geometry{Type: name, Coordinates: c}, err
	case gLineString:
		cs, err := line(f.coords)
		if err == nil && len(cs) < 2 {
			err = fmt.Errorf("LineString with %d positions, want >= 2", len(cs))
		}
		return geometry{Type: name, Coordinates: cs}, err
	case gMultiLineString:
		ls, err := lines(f.coords)
		return geometry{Type: name, Coordinates: ls}, err
	case gPolygon:
		rings, err := lines(f.coords)
		for _, ring := range rings {
			if err != nil {
				break
			}
			if len(ring) < 4 {
				err = fmt.Errorf("polygon ring with %d positions, want >= 4", len(ring))
			} else if ring[0] != ring[len(ring)-1] {
				err = fmt.Errorf("polygon ring is not closed")
			}
		}
		return geometry{Type: name, Coordinates: rings}, err
	}
	if f.kindRaw == nil {
		return geometry{}, fmt.Errorf("geometry has no type")
	}
	return geometry{}, fmt.Errorf("unsupported geometry type %s", f.kindRaw)
}

// position reads validated raw JSON as an [x, y] position.
func position(raw []byte) ([2]float64, error) {
	s := scanner{data: raw}
	if x, y, end, ok := s.pair(0); ok && end == len(raw) {
		return [2]float64{x, y}, nil
	}
	return [2]float64{}, fmt.Errorf("position must be an array of two numbers, got %s", kindOf(raw))
}

// line reads validated raw JSON as an array of positions.
func line(raw []byte) ([][2]float64, error) {
	out := [][2]float64{}
	err := elems(raw, func(e []byte) error {
		c, err := position(e)
		out = append(out, c)
		return err
	})
	return out, err
}

// lines reads validated raw JSON as an array of arrays of positions.
func lines(raw []byte) ([][][2]float64, error) {
	out := [][][2]float64{}
	err := elems(raw, func(e []byte) error {
		l, err := line(e)
		out = append(out, l)
		return err
	})
	return out, err
}

// elems calls fn on each element of the validated JSON array raw, in order.
func elems(raw []byte, fn func(e []byte) error) error {
	if len(raw) == 0 || raw[0] != '[' {
		return fmt.Errorf("coordinates must be an array, got %s", kindOf(raw))
	}
	s := scanner{data: raw}
	_, err := s.array(0, 0, func(i int) (int, error) {
		end, _ := s.value(i, 0, false)
		return end, fn(raw[i:end])
	})
	return err
}

// kindOf names the JSON type of the validated value raw.
func kindOf(raw []byte) string {
	if len(raw) == 0 {
		return "null"
	}
	switch raw[0] {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	case 'n':
		return "null"
	}
	return "number"
}

// scanner validates and walks JSON in data. Its methods take the offset of
// a value and return the offset just past it.
type scanner struct {
	data []byte
}

func (s *scanner) ws(i int) int {
	for ; i < len(s.data); i++ {
		switch s.data[i] {
		case ' ', '\t', '\n', '\r':
		default:
			return i
		}
	}
	return i
}

func (s *scanner) syntaxErr(i int, where string) error {
	if i >= len(s.data) {
		return fmt.Errorf("geojson: unexpected end of JSON input")
	}
	return fmt.Errorf("geojson: invalid character %q at offset %d %s", s.data[i], i, where)
}

// typeErr refuses the value at i where a want is decoded.
func (s *scanner) typeErr(i int, want string) error {
	if i >= len(s.data) {
		return s.syntaxErr(i, "")
	}
	return fmt.Errorf("geojson: cannot decode JSON %s at offset %d into a %s", kindOf(s.data[i:]), i, want)
}

// value validates any JSON value at i, inside depth open containers. With
// conv, every number in it must also convert to float64.
func (s *scanner) value(i, depth int, conv bool) (int, error) {
	if i >= len(s.data) {
		return i, s.syntaxErr(i, "")
	}
	switch c := s.data[i]; {
	case c == '{':
		return s.object(i, depth+1, func(_ []byte, _ bool, j int) (int, error) {
			return s.value(j, depth+1, conv)
		})
	case c == '[':
		return s.array(i, depth+1, func(j int) (int, error) {
			return s.value(j, depth+1, conv)
		})
	case c == '"':
		end, _, err := s.str(i)
		return end, err
	case c == 't':
		return s.literal(i, "true")
	case c == 'f':
		return s.literal(i, "false")
	case c == 'n':
		return s.literal(i, "null")
	case c == '-' || isDigit(c):
		return s.number(i, conv)
	}
	return i, s.syntaxErr(i, "looking for beginning of value")
}

// object walks the object at i, the depth-th open container, calling
// member with each raw key (esc if it holds an escape) and the offset of
// its value; member returns the offset past that value.
func (s *scanner) object(i, depth int, member func(key []byte, esc bool, j int) (int, error)) (int, error) {
	if depth > maxDepth {
		return i, fmt.Errorf("geojson: exceeded max depth")
	}
	d := s.data
	if i = s.ws(i + 1); i < len(d) && d[i] == '}' {
		return i + 1, nil
	}
	for {
		if i >= len(d) || d[i] != '"' {
			return i, s.syntaxErr(i, "looking for beginning of object key string")
		}
		end, esc, err := s.str(i)
		if err != nil {
			return end, err
		}
		key := d[i+1 : end-1]
		if i = s.ws(end); i >= len(d) || d[i] != ':' {
			return i, s.syntaxErr(i, "after object key")
		}
		if i, err = member(key, esc, s.ws(i+1)); err != nil {
			return i, err
		}
		switch i = s.ws(i); {
		case i < len(d) && d[i] == ',':
			i = s.ws(i + 1)
		case i < len(d) && d[i] == '}':
			return i + 1, nil
		default:
			return i, s.syntaxErr(i, "after object key:value pair")
		}
	}
}

// array walks the array at i, the depth-th open container, calling elem
// with the offset of each element; elem returns the offset past it.
func (s *scanner) array(i, depth int, elem func(j int) (int, error)) (int, error) {
	if depth > maxDepth {
		return i, fmt.Errorf("geojson: exceeded max depth")
	}
	d := s.data
	if i = s.ws(i + 1); i < len(d) && d[i] == ']' {
		return i + 1, nil
	}
	for {
		var err error
		if i, err = elem(i); err != nil {
			return i, err
		}
		switch i = s.ws(i); {
		case i < len(d) && d[i] == ',':
			i = s.ws(i + 1)
		case i < len(d) && d[i] == ']':
			return i + 1, nil
		default:
			return i, s.syntaxErr(i, "after array element")
		}
	}
}

// str validates the string at i and reports whether it holds an escape.
func (s *scanner) str(i int) (end int, esc bool, err error) {
	d := s.data
	for j := i + 1; j < len(d); {
		switch c := d[j]; {
		case c == '"':
			return j + 1, esc, nil
		case c == '\\':
			esc = true
			if j+1 >= len(d) {
				return j, esc, s.syntaxErr(len(d), "")
			}
			switch d[j+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				j += 2
			case 'u':
				if j+6 > len(d) || hex4(d[j+2:j+6]) < 0 {
					return j, esc, s.syntaxErr(j+1, "in \\u hexadecimal character escape")
				}
				j += 6
			default:
				return j, esc, s.syntaxErr(j+1, "in string escape code")
			}
		case c < 0x20:
			return j, esc, s.syntaxErr(j, "in string literal")
		default:
			j++
		}
	}
	return len(d), esc, s.syntaxErr(len(d), "")
}

// number validates the number at i against the JSON grammar and, with
// conv, its conversion to float64.
func (s *scanner) number(i int, conv bool) (int, error) {
	end, err := s.numberEnd(i)
	if err == nil && conv {
		if _, ok := s.parse(i, end); !ok {
			err = fmt.Errorf("geojson: number %s at offset %d does not fit a float64", s.data[i:end], i)
		}
	}
	return end, err
}

// float reads a number at i that is valid JSON and fits a float64; ok is
// false for anything else.
func (s *scanner) float(i int) (v float64, end int, ok bool) {
	if i >= len(s.data) || (s.data[i] != '-' && !isDigit(s.data[i])) {
		return 0, i, false
	}
	end, err := s.numberEnd(i)
	if err != nil {
		return 0, i, false
	}
	v, ok = s.parse(i, end)
	return v, end, ok
}

// parse converts the grammar-checked number data[i:end] as encoding/json
// does: strconv.ParseFloat on the same bytes, an overflow refused.
func (s *scanner) parse(i, end int) (float64, bool) {
	v, err := strconv.ParseFloat(string(s.data[i:end]), 64)
	return v, err == nil
}

// numberEnd checks the number at i against the JSON grammar.
func (s *scanner) numberEnd(i int) (int, error) {
	d := s.data
	if d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && isDigit(d[i]):
		i = s.digits(i)
	default:
		return i, s.syntaxErr(i, "in numeric literal")
	}
	if i < len(d) && d[i] == '.' {
		if i++; i >= len(d) || !isDigit(d[i]) {
			return i, s.syntaxErr(i, "after decimal point in numeric literal")
		}
		i = s.digits(i)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || !isDigit(d[i]) {
			return i, s.syntaxErr(i, "in exponent of numeric literal")
		}
		i = s.digits(i)
	}
	return i, nil
}

func (s *scanner) digits(i int) int {
	for i < len(s.data) && isDigit(s.data[i]) {
		i++
	}
	return i
}

func (s *scanner) literal(i int, lit string) (int, error) {
	if !bytes.HasPrefix(s.data[i:], []byte(lit)) {
		return i, s.syntaxErr(i, "in literal "+lit)
	}
	return i + len(lit), nil
}

// stringIs decodes the string member at i into *eq, whether it equals
// want; null leaves *eq as it was. eq may be nil to only check the type.
func (s *scanner) stringIs(i int, want string, eq *bool) (int, error) {
	d := s.data
	switch {
	case i < len(d) && d[i] == '"':
		end, esc, err := s.str(i)
		if err == nil && eq != nil {
			*eq = strEq(d[i+1:end-1], esc, want)
		}
		return end, err
	case i < len(d) && d[i] == 'n':
		return s.literal(i, "null")
	}
	return i, s.typeErr(i, "string")
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// keyIs reports whether the raw member name key (esc if it holds an
// escape) selects the field named name, as encoding/json matches struct
// fields: exactly, or else by bytes.EqualFold once unescaped.
func keyIs(key []byte, esc bool, name string) bool {
	if !esc {
		return string(key) == name || bytes.EqualFold(key, []byte(name))
	}
	var buf [64]byte
	return bytes.EqualFold(unescape(buf[:0], key), []byte(name))
}

// strEq reports whether the raw string contents b (esc if they hold an
// escape) unescape to want.
func strEq(b []byte, esc bool, want string) bool {
	if !esc {
		return string(b) == want
	}
	var buf [64]byte
	return string(unescape(buf[:0], b)) == want
}

// unescape appends the validated raw string contents b to dst as
// encoding/json unquotes them: escapes decoded, a surrogate pair joined, a
// lone surrogate or an invalid UTF-8 byte replaced by U+FFFD.
func unescape(dst, b []byte) []byte {
	for i := 0; i < len(b); {
		c := b[i]
		switch {
		case c == '\\':
			switch c = b[i+1]; c {
			case 'u':
				r := rune(hex4(b[i+2 : i+6]))
				i += 6
				if utf16.IsSurrogate(r) {
					if i+6 <= len(b) && b[i] == '\\' && b[i+1] == 'u' {
						if dec := utf16.DecodeRune(r, rune(hex4(b[i+2:i+6]))); dec != unicode.ReplacementChar {
							dst = utf8.AppendRune(dst, dec)
							i += 6
							continue
						}
					}
					r = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, r)
				continue
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			}
			dst = append(dst, c)
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, n := utf8.DecodeRune(b[i:])
			dst = utf8.AppendRune(dst, r)
			i += n
		}
	}
	return dst
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) int {
	v := 0
	for _, c := range b[:4] {
		switch {
		case isDigit(c):
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		v = v<<4 | int(c)
	}
	return v
}
