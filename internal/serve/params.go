package serve

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
)

// params wraps a request's query values with typed accessors that collect
// parse errors instead of failing one at a time: a handler reads every
// parameter it needs, then checks params.err() once.
type params struct {
	q    url.Values
	errs []string
}

func newParams(q url.Values) *params { return &params{q: q} }

func (p *params) fail(key, format string, args ...any) {
	p.errs = append(p.errs, fmt.Sprintf("%s: %s", key, fmt.Sprintf(format, args...)))
}

// err returns a single error naming every malformed parameter, or nil.
func (p *params) err() error {
	if len(p.errs) == 0 {
		return nil
	}
	return fmt.Errorf("invalid parameters: %s", strings.Join(p.errs, "; "))
}

// str returns the parameter or a default when absent/empty.
func (p *params) str(key, def string) string {
	if v := p.q.Get(key); v != "" {
		return v
	}
	return def
}

func (p *params) intv(key string, def int) int {
	v := p.q.Get(key)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		p.fail(key, "not an integer (%q)", v)
		return def
	}
	return n
}

func (p *params) int64v(key string, def int64) int64 {
	v := p.q.Get(key)
	if v == "" {
		return def
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		p.fail(key, "not an integer (%q)", v)
		return def
	}
	return n
}

func (p *params) floatv(key string, def float64) float64 {
	v := p.q.Get(key)
	if v == "" {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		p.fail(key, "not a number (%q)", v)
		return def
	}
	return f
}

func (p *params) boolv(key string, def bool) bool {
	v := p.q.Get(key)
	if v == "" {
		return def
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		p.fail(key, "not a boolean (%q)", v)
		return def
	}
	return b
}

// cacheKey builds the canonical identity of a tool request:
//
//	tool|name@version|k1=v1&k2=v2...
//
// Parameters are sorted by key (and by value within a repeated key), so
// two requests that differ only in query-string ordering share a cache
// entry, and the dataset version makes a re-upload's old results
// unreachable (Cache.invalidate then drops them, see keyIsStale).
// Every input that can change the result — seed included — must be a
// query parameter, which is what makes equal keys imply byte-equal
// responses.
func cacheKey(tool, dataset string, version uint64, q url.Values) string {
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(tool)
	b.WriteByte('|')
	b.WriteString(dataset)
	b.WriteByte('@')
	b.WriteString(strconv.FormatUint(version, 10))
	b.WriteByte('|')
	for i, k := range keys {
		vals := append([]string(nil), q[k]...)
		sort.Strings(vals)
		for j, v := range vals {
			if i+j > 0 {
				b.WriteByte('&')
			}
			b.WriteString(url.QueryEscape(k))
			b.WriteByte('=')
			b.WriteString(url.QueryEscape(v))
		}
	}
	return b.String()
}

// keyIsStale reads cacheKey's grammar backwards: it reports whether key
// was built for dataset name at a version older than current — after the
// first '|', "name@", then the decimal version up to the next '|'. A
// dataset whose own name begins with "name@<digits>|" over-matches, which
// only costs it a miss.
func keyIsStale(key, name string, current uint64) bool {
	_, rest, _ := strings.Cut(key, "|")
	rest, ok := strings.CutPrefix(rest, name)
	if !ok || !strings.HasPrefix(rest, "@") {
		return false
	}
	digits, _, _ := strings.Cut(rest[1:], "|")
	version, err := strconv.ParseUint(digits, 10, 64)
	return err == nil && version < current
}
